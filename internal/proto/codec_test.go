package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/qos"
	"repro/internal/resource"
)

// sampleMsgs returns one representative of every wire message type,
// with both populated and empty collection fields exercised across the
// set (zero-length collections round-trip as nil by convention).
func sampleMsgs() []Msg {
	req := qos.Request{
		Service: "video",
		Dims: []qos.DimPref{
			{Dim: "video", Attrs: []qos.AttrPref{
				{Attr: "frame-rate", Sets: []qos.ValueSet{qos.Span(10, 5), qos.Span(4, 1)}},
				{Attr: "color", Sets: []qos.ValueSet{qos.One(qos.Str("rgb24")), qos.One(qos.Str("gray"))}},
			}},
			{Dim: "audio", Attrs: []qos.AttrPref{
				{Attr: "rate", Sets: []qos.ValueSet{qos.One(qos.Int(44100)), qos.One(qos.Int(22050))}},
			}},
		},
	}
	return []Msg{
		&CFP{
			ServiceID: "svc-1", Round: 2, SpecName: "video-spec",
			Tasks: []TaskDescr{
				{TaskID: "t0", Request: req, DemandRef: "svc-1/t0", InBytes: 4096, OutBytes: 1 << 20},
				{TaskID: "t1", DemandRef: "shared/demand", InBytes: 0, OutBytes: -1},
			},
			Deadline: 1.25,
		},
		&Proposal{
			ServiceID: "svc-1", Round: 0,
			Tasks: []TaskProposal{
				{
					TaskID: "t0",
					Level: qos.Level{
						{Dim: "video", Attr: "frame-rate"}: qos.Float(7.5),
						{Dim: "video", Attr: "color"}:      qos.Str("rgb24"),
						{Dim: "audio", Attr: "rate"}:       qos.Int(44100),
					},
					Reward: 0.875, Copies: 3,
				},
				{TaskID: "t1", Reward: -2.5, Copies: 1}, // nil level
			},
		},
		&Proposal{ServiceID: "empty", Round: 7},
		&Award{ServiceID: "svc-1", Round: 1, TaskIDs: []string{"t0", "t1"}},
		&AwardAck{ServiceID: "svc-1", Round: 1, TaskIDs: []string{"t0"}, OK: true},
		&AwardAck{ServiceID: "svc-1", Round: 3, OK: false, Reason: "capacity consumed"},
		&TaskData{ServiceID: "svc-1", TaskID: "t0", Bytes: 5 << 20},
		&TaskRelease{ServiceID: "svc-1", TaskID: "t1", Reason: "migrated", Round: 4},
		&Heartbeat{ServiceID: "svc-1", TaskIDs: []string{"t0", "t1", "t2"}},
		&Heartbeat{ServiceID: "idle"},
		&Dissolve{ServiceID: "svc-1", Reason: "user done"},
		&Sequenced{Seq: 1 << 40, Inner: &Award{ServiceID: "s", Round: 0, TaskIDs: []string{"a"}}},
		&Hello{
			Node: 42, X: 12.5, Y: -3.25, RangeM: 80, Bitrate: 5e6,
			Capacity: resource.Vector{400, 128, 5000, 900, 512},
		},
		&CatalogUpdate{
			Specs: [][]byte{[]byte(`{"name":"video-spec"}`)},
			Demands: []DemandEntry{
				{
					Ref:  "svc-1/t0",
					Base: resource.Vector{10, 5, 0, 1, 0},
					Coef: []AttrVector{
						{Dim: "video", Attr: "frame-rate", Vec: resource.Vector{2, 0.5, 40, 0.25, 0}},
					},
				},
				{Ref: "flat", Base: resource.Vector{1, 1, 1, 1, 1}},
			},
		},
		&CatalogUpdate{},
		&Bye{Reason: "closing"},
	}
}

// TestCodecRoundTrip is the core property: Decode(Encode(m)) == m for
// every message type.
func TestCodecRoundTrip(t *testing.T) {
	var c Codec
	for _, m := range sampleMsgs() {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// writeMsg frames m and writes it to w.
func writeMsg(w io.Writer, c Codec, m Msg) error {
	frame, err := c.Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// TestCodecStream checks the io framing: several messages written
// back-to-back read out in order, a clean end gives io.EOF, and a
// stream cut inside a frame gives an unexpected-EOF error.
func TestCodecStream(t *testing.T) {
	var c Codec
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := writeMsg(&buf, c, m); err != nil {
			t.Fatalf("write %s: %v", m.Kind(), err)
		}
	}
	full := buf.Bytes()
	rd := bytes.NewReader(full)
	for i, want := range msgs {
		got, err := c.ReadMsg(rd)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d: mismatch", i)
		}
	}
	if _, err := c.ReadMsg(rd); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
	cut := bytes.NewReader(full[:len(full)-3])
	for {
		_, err := c.ReadMsg(cut)
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "unexpected EOF") {
			t.Fatalf("mid-frame cut: got %v, want unexpected EOF", err)
		}
		break
	}
}

// TestCodecRejectsTruncated feeds every strict prefix of every valid
// frame to Decode: all must error, none may panic.
func TestCodecRejectsTruncated(t *testing.T) {
	var c Codec
	for _, m := range sampleMsgs() {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(frame); i++ {
			if _, err := c.Decode(frame[:i]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded successfully", m.Kind(), i, len(frame))
			}
		}
	}
}

func TestCodecRejectsCorruptHeader(t *testing.T) {
	var c Codec
	frame, err := c.Encode(&Bye{Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[1] = CodecVersion + 1
	if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[2] = 0xEE
	if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind: got %v", err)
	}
	if _, err := c.Decode(append(frame, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestCodecRejectsOversized(t *testing.T) {
	var c Codec
	big := &Dissolve{ServiceID: "s", Reason: strings.Repeat("x", DefaultMaxFrame)}
	if _, err := c.Encode(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("encode over DefaultMaxFrame: err = %v", err)
	}
	frame := make([]byte, frameHeader+DefaultMaxFrame+1)
	copy(frame, []byte{codecMagic, CodecVersion, kindDissolve})
	binary.BigEndian.PutUint32(frame[3:frameHeader], DefaultMaxFrame+1)
	if _, err := c.Decode(frame); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("decode over DefaultMaxFrame: err = %v", err)
	}
	// A huge declared length must be refused by ReadMsg before any
	// payload allocation.
	hdr := []byte{codecMagic, CodecVersion, kindBye, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := (Codec{}).ReadMsg(bytes.NewReader(hdr)); err == nil {
		t.Error("4 GiB declared payload accepted")
	}
}

func TestCodecRejectsNestedSequenced(t *testing.T) {
	var c Codec
	inner := &Sequenced{Seq: 1, Inner: &Bye{}}
	if _, err := c.Encode(&Sequenced{Seq: 2, Inner: inner}); err == nil {
		t.Error("encoder accepted nested Sequenced")
	}
	// Hand-craft the nested frame the encoder refuses to produce.
	payload := appendUvarint(nil, 2)
	payload = append(payload, kindSequenced)
	payload = appendUvarint(payload, 1)
	payload = append(payload, kindBye)
	payload = appendStr(payload, "")
	frame := []byte{codecMagic, CodecVersion, kindSequenced, 0, 0, 0, byte(len(payload))}
	frame = append(frame, payload...)
	if _, err := c.Decode(frame); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("decoder accepted nested Sequenced: %v", err)
	}
}

// TestCodecFloatExact pins the reason the codec is binary rather than
// JSON: integral floats survive exactly (the qos JSON codec cannot
// distinguish Float(8) from Int(8)).
func TestCodecFloatExact(t *testing.T) {
	var c Codec
	m := &Proposal{ServiceID: "s", Tasks: []TaskProposal{{
		TaskID: "t",
		Level:  qos.Level{{Dim: "d", Attr: "a"}: qos.Float(8)},
		Copies: 1,
	}}}
	frame, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	v := got.(*Proposal).Tasks[0].Level[qos.AttrKey{Dim: "d", Attr: "a"}]
	if v.Type != qos.TypeFloat || v.F != 8 {
		t.Fatalf("integral float corrupted: %#v", v)
	}
	// And non-finite values survive bit-exactly.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, 0x1p-1074} {
		m := &CFP{ServiceID: "s", Deadline: f}
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.(*CFP).Deadline != f {
			t.Errorf("float %g corrupted to %g", f, got.(*CFP).Deadline)
		}
	}
}

// FuzzCodecRoundTrip throws arbitrary bytes at Decode: it must never
// panic, and anything it accepts must re-encode canonically — the
// re-encoded frame decodes to a message whose encoding is byte-stable.
// The corpus seeds one valid frame per message type, so the fuzzer
// starts from every arm of the decoder.
func FuzzCodecRoundTrip(f *testing.F) {
	var c Codec
	for _, m := range sampleMsgs() {
		frame, err := c.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return // rejected without panic: fine
		}
		enc1, err := c.Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := c.Decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		enc2, err := c.Encode(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}
