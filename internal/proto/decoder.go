package proto

import (
	"io"

	"repro/internal/qos"
)

// Decoder decodes the frames of one connection. Where the stateless
// Codec.Decode builds every message from nothing, a Decoder carries what
// a connection's frames have in common from one to the next: the frame
// buffer is reused, vocabulary strings (service and task IDs, dimension
// and attribute names, reasons) are interned, and consecutive identical
// QoS requests decode to one shared value. Messages compare
// reflect.DeepEqual with Codec.Decode's and never alias the frame
// buffer, so they may be kept; what they do share — interned strings and
// the request's Dims — is read-only by the same convention that lets
// every session of a workload template share one request in process.
//
// All of it is bounded: the buffer by MaxFrame, the intern table by
// internSlots strings of at most internMaxLen bytes, the request memo by
// one request of at most sharedRequestMax wire bytes. A Decoder is owned
// by one goroutine.
type Decoder struct {
	codec Codec
	frame []byte

	strs [internSlots]string

	reqWire []byte // wire bytes of req, copied out of the frame
	req     qos.Request
}

const (
	// internSlots sizes the direct-mapped intern table (a power of two).
	// A negotiation's vocabulary is a few dozen strings; a colliding
	// string evicts the slot's previous tenant, so the table cannot grow.
	internSlots = 512
	// internMaxLen is the longest string worth a table slot; longer ones
	// (free-text reasons, string-valued attributes) are decoded afresh.
	internMaxLen = 64
	// sharedRequestMax caps the wire size of the remembered request.
	sharedRequestMax = 4096
)

// NewDecoder returns a Decoder with the codec's frame limit.
func (c Codec) NewDecoder() *Decoder { return &Decoder{codec: c} }

// ReadMsg reads and decodes exactly one frame, with Codec.ReadMsg's
// error contract.
func (d *Decoder) ReadMsg(rd io.Reader) (Msg, error) {
	frame, err := d.codec.readFrame(rd, d.frame)
	if err != nil {
		return nil, err
	}
	d.frame = frame
	return d.Decode(frame)
}

// Decode parses one complete frame through the connection state. The
// caller may reuse frame as soon as Decode returns.
func (d *Decoder) Decode(frame []byte) (Msg, error) { return d.codec.decode(frame, d) }

// intern returns b as a string, reusing the table's copy when the slot
// b hashes to (FNV-1a) already holds it.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.strs[(h^h>>16)%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}
