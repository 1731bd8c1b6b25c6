package remoting

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// The wire codec: one encoder and one decoder per frame type (command,
// response, batch). Append* extends a caller-owned buffer and Decode*Into
// reuses the destination's slice capacity, so once the buffers have warmed
// to their steady-state sizes a remoted call performs no heap allocation in
// either codec direction (pinned by TestAllocs* and the CI allocgate job).
// The Marshal*/Unmarshal* forms are thin wrappers for cold paths, tests and
// fuzzing: Marshal* is Append*(nil, …) and Unmarshal* decodes into a fresh
// value that shares no memory with the frame, so every fuzz target
// exercises the codec the hot path runs.

// AppendCommand appends c's wire frame to dst and returns the extended
// slice.
func AppendCommand(dst []byte, c *Command) ([]byte, error) {
	if len(c.Args) > maxArgs || len(c.Name) > maxName || len(c.Blob) > maxBlob {
		return dst, fmt.Errorf("remoting: command exceeds wire limits (args=%d name=%d blob=%d)",
			len(c.Args), len(c.Name), len(c.Blob))
	}
	dst = slices.Grow(dst, 1+4+8+8+2+8*len(c.Args)+2+len(c.Name)+4+len(c.Blob)+crcLen)
	start := len(dst)
	if c.TraceID != 0 {
		dst = append(dst, cmdMagicTraced)
	} else {
		dst = append(dst, cmdMagic)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.API))
	dst = binary.LittleEndian.AppendUint64(dst, c.Seq)
	if c.TraceID != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, c.TraceID)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Args)))
	for _, a := range c.Args {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Name)))
	dst = append(dst, c.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Blob)))
	dst = append(dst, c.Blob...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
}

// MarshalCommand encodes c into a fresh wire frame.
func MarshalCommand(c *Command) ([]byte, error) { return AppendCommand(nil, c) }

// AppendResponse appends resp's wire frame to dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if len(resp.Vals) > maxArgs || len(resp.Blob) > maxBlob {
		return dst, fmt.Errorf("remoting: response exceeds wire limits")
	}
	dst = slices.Grow(dst, 1+8+4+2+8*len(resp.Vals)+4+len(resp.Blob)+crcLen)
	start := len(dst)
	dst = append(dst, respMagic)
	dst = binary.LittleEndian.AppendUint64(dst, resp.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Result))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(resp.Vals)))
	for _, v := range resp.Vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Blob)))
	dst = append(dst, resp.Blob...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
}

// MarshalResponse encodes resp into a fresh wire frame.
func MarshalResponse(resp *Response) ([]byte, error) { return AppendResponse(nil, resp) }

// maxInternedNames bounds lakeD's name intern table. The names crossing the
// wire are a small fixed vocabulary — model names, kernel symbols, client
// tags — so the table saturates within the first few calls per name; past
// the bound a fresh string is returned (one allocation, pathological input
// only) rather than growing without limit.
const maxInternedNames = 256

// internName resolves b to a stable string through the intern table,
// allocating only the first time a name is seen. The map lookup keyed by
// string(b) does not allocate (the compiler elides the conversion). A nil
// table interns nothing: every name is a fresh string.
func internName(names map[string]string, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if names != nil && len(names) < maxInternedNames {
		names[s] = s
	}
	return s
}

// DecodeCommandInto decodes frame into c. The frame's CRC trailer must
// verify and every byte must be accounted for: a flipped bit anywhere is
// rejected, never executed. c's Args capacity is reused; Name is resolved
// through the names intern table (nil = no interning); Blob ALIASES frame —
// valid only as long as the frame view is, which for a ring-transport frame
// means until the next RecvInUser. lakeD decodes and fully executes a
// command before its next pump, so the alias never outlives the view.
func DecodeCommandInto(c *Command, names map[string]string, frame []byte) error {
	body, err := openFrame(frame)
	if err != nil {
		return err
	}
	r := reader{buf: body}
	m, err := r.u8()
	if err != nil || (m != cmdMagic && m != cmdMagicTraced) {
		return ErrShortFrame
	}
	api, err := r.u32()
	if err != nil {
		return err
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	var traceID uint64
	if m == cmdMagicTraced {
		if traceID, err = r.u64(); err != nil {
			return err
		}
		if traceID == 0 {
			return ErrShortFrame // traced frames must carry a real ID
		}
	}
	args, err := r.u64s(c.Args)
	if err != nil {
		return err
	}
	nameLen, err := r.u16()
	if err != nil {
		return err
	}
	if nameLen > maxName {
		return ErrShortFrame
	}
	name, err := r.take(nameLen)
	if err != nil {
		return err
	}
	blob, err := r.blob()
	if err != nil {
		return err
	}
	if r.pos != len(body) {
		return ErrShortFrame
	}
	c.API = APIID(api)
	c.Seq = seq
	c.TraceID = traceID
	c.Args = args
	c.Name = internName(names, name)
	c.Blob = blob
	return nil
}

// UnmarshalCommand decodes a wire frame into a fresh Command that shares no
// memory with frame.
func UnmarshalCommand(frame []byte) (*Command, error) {
	c := new(Command)
	if err := DecodeCommandInto(c, nil, frame); err != nil {
		return nil, err
	}
	c.Blob = bytes.Clone(c.Blob)
	return c, nil
}

// DecodeResponseInto decodes frame into resp, verifying the CRC trailer and
// exact framing like DecodeCommandInto. resp's Vals and Blob capacities are
// reused; the blob bytes are COPIED out of the frame (unlike
// DecodeCommandInto's alias) because lakeLib's stubs read response payloads
// after the call lock is released, by which time a borrowed ring view may
// be recycled.
func DecodeResponseInto(resp *Response, frame []byte) error {
	body, err := openFrame(frame)
	if err != nil {
		return err
	}
	r := reader{buf: body}
	if m, err := r.u8(); err != nil || m != respMagic {
		return ErrShortFrame
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	res, err := r.u32()
	if err != nil {
		return err
	}
	vals, err := r.u64s(resp.Vals)
	if err != nil {
		return err
	}
	blob, err := r.blob()
	if err != nil {
		return err
	}
	if r.pos != len(body) {
		return ErrShortFrame
	}
	resp.Seq = seq
	resp.Result = int32(res)
	resp.Vals = vals
	resp.Blob = append(resp.Blob[:0], blob...)
	return nil
}

// UnmarshalResponse decodes a wire frame into a fresh Response.
func UnmarshalResponse(frame []byte) (*Response, error) {
	resp := new(Response)
	if err := DecodeResponseInto(resp, frame); err != nil {
		return nil, err
	}
	return resp, nil
}

// AppendBatch appends bt's batch payload to dst and returns the extended
// slice. The payload travels in a command blob, which carries the CRC.
func AppendBatch(dst []byte, bt *Batch) ([]byte, error) {
	if len(bt.Entries) > maxBatchEntries {
		return dst, fmt.Errorf("remoting: batch has %d entries, max %d", len(bt.Entries), maxBatchEntries)
	}
	traced := false
	for _, e := range bt.Entries {
		if e.TraceID != 0 {
			traced = true
			break
		}
	}
	if traced {
		dst = append(dst, tracedBatchMagic)
	} else {
		dst = append(dst, batchMagic)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(bt.Entries)))
	for _, e := range bt.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, e.InOff)
		dst = binary.LittleEndian.AppendUint64(dst, e.OutOff)
		dst = binary.LittleEndian.AppendUint32(dst, e.Count)
		if traced {
			dst = binary.LittleEndian.AppendUint64(dst, e.TraceID)
		}
	}
	return dst, nil
}

// MarshalBatch encodes a batch descriptor for transport in a Command blob.
func MarshalBatch(bt *Batch) ([]byte, error) { return AppendBatch(nil, bt) }

// UnmarshalBatchInto decodes frame into bt, reusing bt.Entries capacity.
// Every byte must be accounted for, and a traced frame must carry at least
// one trace ID: the encoder never emits tracedBatchMagic otherwise, so the
// decoder rejects it rather than aliasing the untraced layout.
func UnmarshalBatchInto(bt *Batch, frame []byte) error {
	r := reader{buf: frame}
	m, err := r.u8()
	if err != nil || (m != batchMagic && m != tracedBatchMagic) {
		return ErrShortFrame
	}
	n, err := r.u16()
	if err != nil {
		return err
	}
	size := 8 + 8 + 8 + 4
	if m == tracedBatchMagic {
		size += 8
	}
	if n > maxBatchEntries || r.need(n*size) != nil {
		return ErrShortFrame
	}
	entries := slices.Grow(bt.Entries[:0], n)
	traced := false
	// The need check above covers every read in this loop, so none fails.
	for i := 0; i < n; i++ {
		var e BatchEntry
		e.Seq, _ = r.u64()
		e.InOff, _ = r.u64()
		e.OutOff, _ = r.u64()
		e.Count, _ = r.u32()
		if m == tracedBatchMagic {
			e.TraceID, _ = r.u64()
			traced = traced || e.TraceID != 0
		}
		entries = append(entries, e)
	}
	if r.pos != len(frame) || (m == tracedBatchMagic && !traced) {
		return ErrShortFrame
	}
	bt.Entries = entries
	return nil
}

// UnmarshalBatch decodes a batch payload into a fresh Batch.
func UnmarshalBatch(frame []byte) (*Batch, error) {
	bt := new(Batch)
	if err := UnmarshalBatchInto(bt, frame); err != nil {
		return nil, err
	}
	return bt, nil
}
