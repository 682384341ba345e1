package proto

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
)

// recordedFrames splits testdata/loopback-formation.frames — the byte
// streams of one organizer–daemon connection through a handshake, a
// catalog push and two formations, written by internal/net's
// TestDecoderMatchesCodecOnALoopbackFormation with -record-formation —
// into its frames.
func recordedFrames(t testing.TB) [][]byte {
	t.Helper()
	stream, err := os.ReadFile("testdata/loopback-formation.frames")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for rd := bytes.NewReader(stream); ; {
		frame, err := Codec{}.readFrame(rd, nil)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("frame %d of the recording: %v", len(frames), err)
		}
		frames = append(frames, frame)
	}
}

// TestDecoderMatchesCodec is the differential test of the connection
// decoder against its stateless reference: the FuzzCodecRoundTrip corpus
// and a recorded formation, each run twice through one Decoder — the
// second pass meets warm tables and a remembered request — must decode
// to exactly what Codec.Decode makes of each frame.
func TestDecoderMatchesCodec(t *testing.T) {
	var c Codec
	var frames [][]byte
	for _, m := range sampleMsgs() {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	frames = append(frames, recordedFrames(t)...)
	dec := c.NewDecoder()
	for pass := 0; pass < 2; pass++ {
		for i, frame := range frames {
			want, err := c.Decode(frame)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			got, err := dec.Decode(frame)
			if err != nil {
				t.Fatalf("pass %d, frame %d: decoder: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, frame %d:\n got %#v\nwant %#v", pass, i, got, want)
			}
		}
	}
	// Strictness is the reference's too: what it rejects, a warm decoder
	// rejects.
	for i, frame := range frames {
		for cut := 0; cut < len(frame); cut += 1 + len(frame)/16 {
			if _, err := dec.Decode(frame[:cut]); err == nil {
				t.Fatalf("frame %d truncated to %d/%d bytes decoded", i, cut, len(frame))
			}
		}
	}
}

// TestDecoderStateIsBounded: a hundred thousand distinct strings leave
// the intern table at its fixed size, holding nothing longer than the
// cap, and the request memo within its own.
func TestDecoderStateIsBounded(t *testing.T) {
	var c Codec
	dec := c.NewDecoder()
	for i := 0; i < 100_000; i++ {
		frame, err := c.Encode(&TaskData{ServiceID: fmt.Sprintf("svc-%d", i), TaskID: fmt.Sprintf("%0*d", internMaxLen+1+i%7, i)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if td := m.(*TaskData); td.ServiceID != fmt.Sprintf("svc-%d", i) {
			t.Fatalf("string %d decoded as %q", i, td.ServiceID)
		}
	}
	held := 0
	for _, s := range dec.strs {
		if len(s) > internMaxLen {
			t.Fatalf("intern table holds a %d-byte string, cap %d", len(s), internMaxLen)
		}
		if s != "" {
			held++
		}
	}
	if held == 0 || held > internSlots {
		t.Errorf("intern table holds %d strings, want 1..%d", held, internSlots)
	}
	if len(dec.reqWire) > sharedRequestMax {
		t.Errorf("request memo holds %d wire bytes, cap %d", len(dec.reqWire), sharedRequestMax)
	}
}

// TestDecodedMessagesOutliveTheFrame: nothing a Decoder returns may
// alias the frame it was decoded from — the read loop overwrites that
// buffer with the next frame while the inbox still holds the message.
func TestDecodedMessagesOutliveTheFrame(t *testing.T) {
	var c Codec
	dec := c.NewDecoder()
	for _, m := range sampleMsgs() {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] ^= 0xA5
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s changed when its frame buffer was overwritten:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
	// And through the stream interface, where the buffer is the decoder's.
	var stream bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := c.WriteMsg(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	var got []Msg
	for range msgs {
		m, err := dec.ReadMsg(&stream)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Error("messages read earlier changed as later frames reused the buffer")
	}
}

var sinkMsg Msg

// BenchmarkStreamDecode decodes the recorded formation's frames the way
// a connection's read loop does: one Decoder, one reused buffer. The
// stateless sub-benchmark is the same frames through Codec.ReadMsg.
func BenchmarkStreamDecode(b *testing.B) {
	var stream []byte
	frames := recordedFrames(b)
	for _, f := range frames {
		stream = append(stream, f...)
	}
	run := func(b *testing.B, read func(io.Reader) (Msg, error)) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream)))
		rd := bytes.NewReader(stream)
		for i := 0; i < b.N; i++ {
			rd.Reset(stream)
			for range frames {
				m, err := read(rd)
				if err != nil {
					b.Fatal(err)
				}
				sinkMsg = m
			}
		}
	}
	b.Run("decoder", func(b *testing.B) { run(b, Codec{}.NewDecoder().ReadMsg) })
	b.Run("stateless", func(b *testing.B) { run(b, Codec{}.ReadMsg) })
}
