package proto

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
)

// This file is the wire codec of the networked fabric: a versioned,
// length-prefixed binary framing that round-trips every protocol and
// control message exactly (Decode(Encode(m)) == m, property-tested in
// codec_test.go). The simulator and the in-process live runtime pass
// Msg values by pointer and never touch it; internal/net frames every
// TCP write with it.
//
// Frame layout (all integers big-endian):
//
//	offset 0  1 byte   magic 'Q'
//	offset 1  1 byte   codec version (CodecVersion)
//	offset 2  1 byte   message kind tag
//	offset 3  4 bytes  payload length
//	offset 7  payload
//
// Payload primitives: unsigned varints for lengths/counts/sequence
// numbers, zigzag varints for signed integers, 8-byte IEEE-754 bits for
// floats (exact — the qos JSON codec is lossy for integral floats,
// which is why this codec does not reuse it), length-prefixed UTF-8 for
// strings. Maps (qos.Level, demand coefficients) are written sorted by
// key so encoding is deterministic. Zero-length collections decode as
// nil, mirroring how the message constructors build them.
//
// Decoding is strict and panic-free: truncated payloads, bad varints,
// unknown tags, nested Sequenced envelopes, counts larger than the
// remaining bytes, and trailing garbage all return errors. The frame
// length is checked against MaxFrame before the payload is read, so a
// corrupt length cannot force a huge allocation.

// CodecVersion is the wire format version this build speaks. Decode
// rejects every other version: negotiation protocols this small version
// by redeployment, not by in-band downgrade.
const CodecVersion = 1

// DefaultMaxFrame bounds the payload of one frame (1 MiB). TaskData is
// the only unbounded message; its Bytes field models payload size
// without carrying the bytes, so real frames stay tiny.
const DefaultMaxFrame = 1 << 20

// codecMagic guards against a non-protocol peer (or a desynchronized
// stream) being interpreted as frames.
const codecMagic = 'Q'

// frameHeader is the fixed prefix length: magic, version, kind, length.
const frameHeader = 7

// Message kind tags. Tags are wire format: append only, never renumber.
const (
	kindCFP byte = iota + 1
	kindProposal
	kindAward
	kindAwardAck
	kindTaskData
	kindTaskRelease
	kindHeartbeat
	kindDissolve
	kindSequenced
	kindHello
	kindCatalogUpdate
	kindBye
)

// ErrFrameTooLarge is returned when a frame's declared payload exceeds
// the codec's MaxFrame, on either side of the wire.
var ErrFrameTooLarge = errors.New("proto: frame exceeds max size")

// Codec encodes and decodes framed messages. The zero value is ready to
// use with DefaultMaxFrame.
type Codec struct {
	// MaxFrame caps the payload length accepted on decode and produced
	// on encode; 0 means DefaultMaxFrame.
	MaxFrame int
}

func (c Codec) maxFrame() int {
	if c.MaxFrame > 0 {
		return c.MaxFrame
	}
	return DefaultMaxFrame
}

// kindOf maps a message to its wire tag.
func kindOf(m Msg) (byte, error) {
	switch m.(type) {
	case *CFP:
		return kindCFP, nil
	case *Proposal:
		return kindProposal, nil
	case *Award:
		return kindAward, nil
	case *AwardAck:
		return kindAwardAck, nil
	case *TaskData:
		return kindTaskData, nil
	case *TaskRelease:
		return kindTaskRelease, nil
	case *Heartbeat:
		return kindHeartbeat, nil
	case *Dissolve:
		return kindDissolve, nil
	case *Sequenced:
		return kindSequenced, nil
	case *Hello:
		return kindHello, nil
	case *CatalogUpdate:
		return kindCatalogUpdate, nil
	case *Bye:
		return kindBye, nil
	default:
		return 0, fmt.Errorf("proto: cannot encode %T", m)
	}
}

// Encode frames a message into a fresh buffer.
func (c Codec) Encode(m Msg) ([]byte, error) { return c.AppendFrame(nil, m) }

// AppendFrame frames a message onto dst (which may be nil or a pooled
// buffer) and returns the extended slice.
func (c Codec) AppendFrame(dst []byte, m Msg) ([]byte, error) {
	kind, err := kindOf(m)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, codecMagic, CodecVersion, kind, 0, 0, 0, 0)
	dst, err = appendMsg(dst, m, false)
	if err != nil {
		return nil, err
	}
	payload := len(dst) - start - frameHeader
	if payload > c.maxFrame() {
		return nil, fmt.Errorf("proto: %s payload %d: %w", m.Kind(), payload, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(dst[start+3:], uint32(payload))
	return dst, nil
}

// Decode parses one complete frame. The input must be exactly one
// frame; trailing bytes are an error (stream framing belongs to ReadMsg).
// It keeps no state between frames: it is the reference the
// per-connection Decoder is differentially tested against.
func (c Codec) Decode(frame []byte) (Msg, error) { return c.decode(frame, nil) }

// payloadLen validates a frame header — magic, version, declared length
// against MaxFrame — and returns the payload length.
func (c Codec) payloadLen(hdr []byte) (int, error) {
	if hdr[0] != codecMagic {
		return 0, fmt.Errorf("proto: bad magic 0x%02x", hdr[0])
	}
	if hdr[1] != CodecVersion {
		return 0, fmt.Errorf("proto: unsupported codec version %d (want %d)", hdr[1], CodecVersion)
	}
	n := binary.BigEndian.Uint32(hdr[3:frameHeader])
	if int64(n) > int64(c.maxFrame()) {
		return 0, fmt.Errorf("proto: declared payload %d: %w", n, ErrFrameTooLarge)
	}
	return int(n), nil
}

// decode is Decode, reading strings and requests through dec's
// connection state when dec is non-nil.
func (c Codec) decode(frame []byte, dec *Decoder) (Msg, error) {
	if len(frame) < frameHeader {
		return nil, fmt.Errorf("proto: frame too short (%d bytes)", len(frame))
	}
	n, err := c.payloadLen(frame)
	if err != nil {
		return nil, err
	}
	if len(frame)-frameHeader != n {
		return nil, fmt.Errorf("proto: payload length mismatch: declared %d, have %d", n, len(frame)-frameHeader)
	}
	r := wireReader{b: frame[frameHeader:], dec: dec}
	m := decodeMsg(&r, frame[2], false)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("proto: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return m, nil
}

// WriteMsg frames and writes one message.
func (c Codec) WriteMsg(w io.Writer, m Msg) error {
	frame, err := c.Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadMsg reads exactly one frame from the stream. A stream that ends
// cleanly between frames returns io.EOF; one that ends inside a frame
// returns io.ErrUnexpectedEOF. Oversized declared lengths are rejected
// before any payload allocation.
func (c Codec) ReadMsg(rd io.Reader) (Msg, error) {
	frame, err := c.readFrame(rd, nil)
	if err != nil {
		return nil, err
	}
	return c.Decode(frame)
}

// frameBufSize is the initial capacity of a frame read buffer: every
// negotiation frame of the stock workloads fits, so a connection's
// reused buffer is allocated once.
const frameBufSize = 512

// readFrame reads one frame into buf, reallocating only when buf's
// capacity does not hold it, and returns the frame.
func (c Codec) readFrame(rd io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader, frameBufSize)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(rd, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: reading frame header: %w", err)
	}
	n, err := c.payloadLen(hdr)
	if err != nil {
		return nil, err
	}
	if cap(buf) < frameHeader+n {
		buf = make([]byte, frameHeader+n)
		copy(buf, hdr)
	}
	buf = buf[:frameHeader+n]
	if _, err := io.ReadFull(rd, buf[frameHeader:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("proto: reading frame payload: %w", err)
	}
	return buf, nil
}

// --- payload encoding -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendF64(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendStr(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendVec(b []byte, v resource.Vector) []byte {
	for _, f := range v {
		b = appendF64(b, f)
	}
	return b
}

func appendValue(b []byte, v qos.Value) ([]byte, error) {
	b = append(b, byte(v.Type))
	switch v.Type {
	case qos.TypeInt:
		return appendVarint(b, v.I), nil
	case qos.TypeFloat:
		return appendF64(b, v.F), nil
	case qos.TypeString:
		return appendStr(b, v.S), nil
	default:
		return nil, fmt.Errorf("proto: cannot encode qos value type %d", v.Type)
	}
}

func appendLevel(b []byte, l qos.Level) ([]byte, error) {
	// A level names a handful of attributes: collected and sorted on the
	// stack, a proposal's encoding allocates nothing here.
	var arr [8]qos.AttrKey
	keys := arr[:0]
	for k := range l {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b qos.AttrKey) int {
		return cmp.Or(strings.Compare(a.Dim, b.Dim), strings.Compare(a.Attr, b.Attr))
	})
	b = appendUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = appendStr(b, k.Dim)
		b = appendStr(b, k.Attr)
		if b, err = appendValue(b, l[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendRequest(b []byte, r *qos.Request) ([]byte, error) {
	b = appendStr(b, r.Service)
	b = appendUvarint(b, uint64(len(r.Dims)))
	var err error
	for i := range r.Dims {
		dp := &r.Dims[i]
		b = appendStr(b, dp.Dim)
		b = appendUvarint(b, uint64(len(dp.Attrs)))
		for j := range dp.Attrs {
			ap := &dp.Attrs[j]
			b = appendStr(b, ap.Attr)
			b = appendUvarint(b, uint64(len(ap.Sets)))
			for _, set := range ap.Sets {
				b = appendBool(b, set.Continuous)
				if set.Continuous {
					b = appendF64(b, set.From)
					b = appendF64(b, set.To)
				} else if b, err = appendValue(b, set.Single); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendMsg(b []byte, m Msg, nested bool) ([]byte, error) {
	var err error
	switch v := m.(type) {
	case *CFP:
		b = appendStr(b, v.ServiceID)
		b = appendVarint(b, int64(v.Round))
		b = appendStr(b, v.SpecName)
		b = appendUvarint(b, uint64(len(v.Tasks)))
		for i := range v.Tasks {
			t := &v.Tasks[i]
			b = appendStr(b, t.TaskID)
			if b, err = appendRequest(b, &t.Request); err != nil {
				return nil, err
			}
			b = appendStr(b, t.DemandRef)
			b = appendVarint(b, t.InBytes)
			b = appendVarint(b, t.OutBytes)
		}
		return appendF64(b, v.Deadline), nil
	case *Proposal:
		b = appendStr(b, v.ServiceID)
		b = appendVarint(b, int64(v.Round))
		b = appendUvarint(b, uint64(len(v.Tasks)))
		for i := range v.Tasks {
			t := &v.Tasks[i]
			b = appendStr(b, t.TaskID)
			if b, err = appendLevel(b, t.Level); err != nil {
				return nil, err
			}
			b = appendF64(b, t.Reward)
			b = appendVarint(b, int64(t.Copies))
		}
		return b, nil
	case *Award:
		b = appendStr(b, v.ServiceID)
		b = appendVarint(b, int64(v.Round))
		return appendStrings(b, v.TaskIDs), nil
	case *AwardAck:
		b = appendStr(b, v.ServiceID)
		b = appendVarint(b, int64(v.Round))
		b = appendStrings(b, v.TaskIDs)
		b = appendBool(b, v.OK)
		return appendStr(b, v.Reason), nil
	case *TaskData:
		b = appendStr(b, v.ServiceID)
		b = appendStr(b, v.TaskID)
		return appendVarint(b, v.Bytes), nil
	case *TaskRelease:
		b = appendStr(b, v.ServiceID)
		b = appendStr(b, v.TaskID)
		b = appendStr(b, v.Reason)
		return appendVarint(b, int64(v.Round)), nil
	case *Heartbeat:
		b = appendStr(b, v.ServiceID)
		return appendStrings(b, v.TaskIDs), nil
	case *Dissolve:
		b = appendStr(b, v.ServiceID)
		return appendStr(b, v.Reason), nil
	case *Sequenced:
		if nested {
			return nil, errors.New("proto: nested Sequenced envelope")
		}
		if v.Inner == nil {
			return nil, errors.New("proto: Sequenced envelope with nil inner message")
		}
		inner, err := kindOf(v.Inner)
		if err != nil {
			return nil, err
		}
		b = appendUvarint(b, v.Seq)
		b = append(b, inner)
		return appendMsg(b, v.Inner, true)
	case *Hello:
		b = appendVarint(b, int64(v.Node))
		b = appendF64(b, v.X)
		b = appendF64(b, v.Y)
		b = appendF64(b, v.RangeM)
		b = appendF64(b, v.Bitrate)
		return appendVec(b, v.Capacity), nil
	case *CatalogUpdate:
		b = appendUvarint(b, uint64(len(v.Specs)))
		for _, s := range v.Specs {
			b = appendBytes(b, s)
		}
		b = appendUvarint(b, uint64(len(v.Demands)))
		for i := range v.Demands {
			d := &v.Demands[i]
			b = appendStr(b, d.Ref)
			b = appendVec(b, d.Base)
			b = appendUvarint(b, uint64(len(d.Coef)))
			for _, c := range d.Coef {
				b = appendStr(b, c.Dim)
				b = appendStr(b, c.Attr)
				b = appendVec(b, c.Vec)
			}
		}
		return b, nil
	case *Bye:
		return appendStr(b, v.Reason), nil
	default:
		return nil, fmt.Errorf("proto: cannot encode %T", m)
	}
}

// --- payload decoding -------------------------------------------------

// wireReader walks a payload with a sticky error: once any read fails,
// every further read is a no-op returning zero values, so decode code
// reads straight through without per-field error plumbing.
type wireReader struct {
	b   []byte
	off int
	err error
	dec *Decoder // connection state; nil decodes statelessly
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("proto: truncated payload")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("proto: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("proto: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("proto: truncated float at offset %d", r.off)
		return 0
	}
	u := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(u)
}

func (r *wireReader) bool() bool {
	switch c := r.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("proto: bad bool byte 0x%02x", c)
		return false
	}
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("proto: string length %d exceeds remaining %d", n, r.remaining())
		return ""
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if r.dec != nil {
		return r.dec.intern(b)
	}
	return string(b)
}

func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("proto: byte-slice length %d exceeds remaining %d", n, r.remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return p
}

// count reads a collection length and validates it against the bytes
// left, assuming each element occupies at least elemSize bytes — a
// corrupt count can therefore never force a large allocation.
func (r *wireReader) count(elemSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(r.remaining()/elemSize) {
		r.fail("proto: count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

func (r *wireReader) vec() resource.Vector {
	var v resource.Vector
	for i := range v {
		v[i] = r.f64()
	}
	return v
}

func (r *wireReader) value() qos.Value {
	switch t := qos.ValueType(r.byte()); t {
	case qos.TypeInt:
		return qos.Value{Type: t, I: r.varint()}
	case qos.TypeFloat:
		return qos.Value{Type: t, F: r.f64()}
	case qos.TypeString:
		return qos.Value{Type: t, S: r.str()}
	default:
		if r.err == nil {
			r.fail("proto: bad qos value type %d", t)
		}
		return qos.Value{}
	}
}

func (r *wireReader) level() qos.Level {
	n := r.count(3)
	if n == 0 {
		return nil
	}
	l := make(qos.Level, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := qos.AttrKey{Dim: r.str(), Attr: r.str()}
		l[k] = r.value()
	}
	return l
}

// request decodes one task's QoS request. Through a Decoder, a request
// whose wire bytes repeat the previous one's — the tasks of a CFP, the
// CFPs of a template's sessions — is that request again, not a rebuilt
// copy: the encoding is self-delimiting, so equal bytes at the cursor
// parse to an equal value of the same extent.
func (r *wireReader) request() qos.Request {
	d := r.dec
	if d == nil {
		return r.parseRequest()
	}
	if n := len(d.reqWire); n > 0 && r.err == nil && bytes.HasPrefix(r.b[r.off:], d.reqWire) {
		r.off += n
		return d.req
	}
	start := r.off
	q := r.parseRequest()
	if wire := r.b[start:r.off]; r.err == nil && len(wire) <= sharedRequestMax {
		d.reqWire, d.req = append(d.reqWire[:0], wire...), q
	}
	return q
}

func (r *wireReader) parseRequest() qos.Request {
	q := qos.Request{Service: r.str()}
	nd := r.count(2)
	if nd > 0 {
		q.Dims = make([]qos.DimPref, nd)
	}
	for i := 0; i < nd && r.err == nil; i++ {
		dp := &q.Dims[i]
		dp.Dim = r.str()
		na := r.count(2)
		if na > 0 {
			dp.Attrs = make([]qos.AttrPref, na)
		}
		for j := 0; j < na && r.err == nil; j++ {
			ap := &dp.Attrs[j]
			ap.Attr = r.str()
			ns := r.count(2)
			if ns > 0 {
				ap.Sets = make([]qos.ValueSet, ns)
			}
			for k := 0; k < ns && r.err == nil; k++ {
				set := &ap.Sets[k]
				set.Continuous = r.bool()
				if set.Continuous {
					set.From = r.f64()
					set.To = r.f64()
				} else {
					set.Single = r.value()
				}
			}
		}
	}
	return q
}

func (r *wireReader) strings() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		ss[i] = r.str()
	}
	return ss
}

func decodeMsg(r *wireReader, kind byte, nested bool) Msg {
	switch kind {
	case kindCFP:
		m := &CFP{ServiceID: r.str(), Round: int(r.varint()), SpecName: r.str()}
		n := r.count(5)
		if n > 0 {
			m.Tasks = make([]TaskDescr, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			t := &m.Tasks[i]
			t.TaskID = r.str()
			t.Request = r.request()
			t.DemandRef = r.str()
			t.InBytes = r.varint()
			t.OutBytes = r.varint()
		}
		m.Deadline = r.f64()
		return m
	case kindProposal:
		m := &Proposal{ServiceID: r.str(), Round: int(r.varint())}
		n := r.count(11)
		if n > 0 {
			m.Tasks = make([]TaskProposal, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			t := &m.Tasks[i]
			t.TaskID = r.str()
			t.Level = r.level()
			t.Reward = r.f64()
			t.Copies = int(r.varint())
		}
		return m
	case kindAward:
		return &Award{ServiceID: r.str(), Round: int(r.varint()), TaskIDs: r.strings()}
	case kindAwardAck:
		return &AwardAck{
			ServiceID: r.str(), Round: int(r.varint()),
			TaskIDs: r.strings(), OK: r.bool(), Reason: r.str(),
		}
	case kindTaskData:
		return &TaskData{ServiceID: r.str(), TaskID: r.str(), Bytes: r.varint()}
	case kindTaskRelease:
		return &TaskRelease{ServiceID: r.str(), TaskID: r.str(), Reason: r.str(), Round: int(r.varint())}
	case kindHeartbeat:
		return &Heartbeat{ServiceID: r.str(), TaskIDs: r.strings()}
	case kindDissolve:
		return &Dissolve{ServiceID: r.str(), Reason: r.str()}
	case kindSequenced:
		if nested {
			r.fail("proto: nested Sequenced envelope")
			return nil
		}
		seq := r.uvarint()
		inner := decodeMsg(r, r.byte(), true)
		if r.err != nil {
			return nil
		}
		return &Sequenced{Seq: seq, Inner: inner}
	case kindHello:
		return &Hello{
			Node: radio.NodeID(r.varint()),
			X:    r.f64(), Y: r.f64(), RangeM: r.f64(), Bitrate: r.f64(),
			Capacity: r.vec(),
		}
	case kindCatalogUpdate:
		m := &CatalogUpdate{}
		n := r.count(1)
		if n > 0 {
			m.Specs = make([][]byte, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Specs[i] = r.bytes()
		}
		n = r.count(1 + 8*resource.NumKinds)
		if n > 0 {
			m.Demands = make([]DemandEntry, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			d := &m.Demands[i]
			d.Ref = r.str()
			d.Base = r.vec()
			nc := r.count(2 + 8*resource.NumKinds)
			if nc > 0 {
				d.Coef = make([]AttrVector, nc)
			}
			for j := 0; j < nc && r.err == nil; j++ {
				c := &d.Coef[j]
				c.Dim = r.str()
				c.Attr = r.str()
				c.Vec = r.vec()
			}
		}
		return m
	case kindBye:
		return &Bye{Reason: r.str()}
	default:
		r.fail("proto: unknown message kind %d", kind)
		return nil
	}
}
