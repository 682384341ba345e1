// Command qosnoded runs one QoS provider node as a network daemon: a
// TCP endpoint speaking the framed binary protocol codec, hosting the
// same provider state machine the simulator uses.
// A fleet of qosnoded processes plus a qosim client (-connect) is the
// fully networked deployment of the coalition-formation protocol.
//
// Usage:
//
//	qosnoded -id N [-listen addr] [-nodes N] [-timescale F] [-trace-out FILE]
//
// The daemon takes its position, radio range, bitrate and capacity
// from the fixed interop topology (the E10/E28 neighbourhood): node id
// out of -nodes total on a 10 m grid with the phone/PDA/laptop profile
// rotation. It prints one line
//
//	qosnoded: node N listening on HOST:PORT
//
// to stdout once ready (bind -listen to 127.0.0.1:0 and scrape the
// real port from it), then serves until SIGINT/SIGTERM.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/trace"
)

type options struct {
	id        int
	listen    string
	nodes     int
	timeScale float64
	traceOut  string
}

func parseFlags(args []string, errw io.Writer) (*options, error) {
	fs := flag.NewFlagSet("qosnoded", flag.ContinueOnError)
	fs.SetOutput(errw)
	o := &options{}
	fs.IntVar(&o.id, "id", -1, "node identity in the interop topology (required, >= 1)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.IntVar(&o.nodes, "nodes", 6, "total nodes in the interop topology (fixes this node's grid position)")
	fs.Float64Var(&o.timeScale, "timescale", 0.02, "wall-clock seconds per virtual protocol second")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the endpoint's trace as JSONL to FILE on shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.id < 1 || o.id >= o.nodes {
		err := fmt.Errorf("qosnoded: -id must be in [1, %d) (node 0 is the qosim client)", o.nodes)
		fmt.Fprintln(errw, err)
		return nil, err
	}
	return o, nil
}

// run serves the daemon until the stop channel fires.
func run(o *options, out io.Writer, stop <-chan os.Signal) error {
	var buf *trace.Buffer
	ecfg := net.InteropEndpointConfig(radio.NodeID(o.id), o.nodes, o.listen, o.timeScale)
	if o.traceOut != "" {
		buf = &trace.Buffer{}
		ecfg.Trace = buf
	}
	n := net.NewNode(net.NodeConfig{
		Endpoint: ecfg,
		Provider: core.DefaultProviderConfig,
		Retry:    proto.DefaultRetryConfig,
	})
	if err := n.Start(); err != nil {
		return err
	}
	fmt.Fprintf(out, "qosnoded: node %d listening on %s\n", o.id, n.Endpoint.Addr())
	<-stop
	err := n.Close()
	fmt.Fprintf(out, "qosnoded: node %d stopped (%d sent, %d delivered, %d send errors)\n",
		o.id, n.Endpoint.Sent.Load(), n.Endpoint.Delivered.Load(), n.Endpoint.SendErrors.Load())
	if buf != nil {
		f, ferr := os.Create(o.traceOut)
		if ferr != nil {
			return errors.Join(err, ferr)
		}
		if werr := buf.WriteJSONL(f); werr != nil {
			f.Close()
			return errors.Join(err, werr)
		}
		return errors.Join(err, f.Close())
	}
	return err
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(o, os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "qosnoded:", err)
		os.Exit(1)
	}
}
