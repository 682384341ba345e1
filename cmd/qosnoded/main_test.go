package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	qnet "repro/internal/net"
	"repro/internal/radio"
)

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(nil, io.Discard); err == nil {
		t.Error("missing -id accepted")
	}
	if _, err := parseFlags([]string{"-id", "0"}, io.Discard); err == nil {
		t.Error("-id 0 accepted (reserved for the qosim client)")
	}
	if _, err := parseFlags([]string{"-id", "6", "-nodes", "6"}, io.Discard); err == nil {
		t.Error("-id outside the topology accepted")
	}
	o, err := parseFlags([]string{"-id", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.id != 2 || o.nodes != 6 || o.listen != "127.0.0.1:0" || o.timeScale != 0.02 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// syncBuffer lets the test read daemon output while run is writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesAndStops boots a daemon, handshakes with it over TCP,
// and shuts it down via the signal channel.
func TestRunServesAndStops(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	o, err := parseFlags([]string{"-id", "1", "-nodes", "4", "-trace-out", traceOut}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, &out, stop) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address; output: %q", out.String())
	}

	client := qnet.NewEndpoint(qnet.InteropEndpointConfig(0, 4, "", 0.02))
	defer client.Close()
	if err := client.Dial(radio.NodeID(1), addr); err != nil {
		t.Fatalf("dialing daemon: %v", err)
	}
	if math.IsInf(client.CommCost(1, 64), 1) {
		t.Error("handshake did not populate the peer directory")
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop on signal")
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("no shutdown line in output: %q", out.String())
	}
	if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
		t.Errorf("trace file not written: %v", err)
	}
}
