package flightrec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"lakego/internal/vtime"
)

// seedDump records one batched flush end to end — a member enqueue, the
// flush, and the remoted call it issued — with fixed wall stamps, so the
// seed exercises every stitch stage, coalesce included.
func seedDump() *Dump {
	clock := vtime.New()
	r := New(clock, 64)
	r.SetEnabled(true)
	const member, flush = 1, 2
	r.Emit(DomainBatcher, EvEnqueue, member, 0, 0, 1, 0, 0)
	clock.Advance(100 * time.Microsecond)
	r.Emit(DomainBatcher, EvFlushStart, flush, 0, 0, 1, 1, 0)
	r.Emit(DomainBatcher, EvFlushMember, member, 0, 0, flush, 1, 0)
	r.Emit(DomainKernel, EvCallStart, flush, 7, 0, 9, 64, 0)
	r.Emit(DomainKernel, EvMarshal, flush, 7, 0, 300, 64, 0)
	clock.Advance(2 * time.Microsecond)
	r.Emit(DomainDaemon, EvDispatch, flush, 7, 0, 9, 64, 0)
	r.Emit(DomainDaemon, EvExecStart, flush, 7, 0, 9, 0, 0)
	r.Emit(DomainGPU, EvCopy, flush, 0, 1, 4096, 1500, 0)
	clock.Advance(5 * time.Microsecond)
	r.Emit(DomainDaemon, EvExecEnd, flush, 7, 0, 9, 0, 0)
	r.Emit(DomainDaemon, EvRespond, flush, 7, 0, 9, 32, 0)
	r.Emit(DomainKernel, EvDemux, flush, 7, 0, 200, 0, 0)
	clock.Advance(4 * time.Microsecond)
	r.Emit(DomainKernel, EvChannel, flush, 7, 0, 4000, 96, 0)
	r.Emit(DomainKernel, EvCallEnd, flush, 7, 0, 9, 0, 0)
	d := r.Snapshot("fuzz-seed")
	d.WallNow = 1_700_000_000_000_000_000
	for i := range d.Domains {
		for j := range d.Domains[i].Events {
			d.Domains[i].Events[j].Wall = d.WallNow
		}
	}
	return d
}

// FuzzReadDump feeds arbitrary bytes to the dump reader, which parses
// outside input for laketrace. Nothing it accepts may panic the stitcher
// or its renderings, and an accepted binary dump must re-encode to exactly
// the accepted bytes: a field the reader silently truncated would not.
func FuzzReadDump(f *testing.F) {
	d := seedDump()
	bin := d.Encode()
	js, err := d.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add(js)
	// The same dump with its first domain id widened to 0x0100, and with
	// bit 24 of its first event's kind/shard/domain/device word set.
	domain := len(dumpMagic) + 4 + 2 + len(d.Reason) + 16 + 2
	wide := bytes.Clone(bin)
	binary.LittleEndian.PutUint16(wide[domain:], 0x0100)
	f.Add(wide)
	unused := bytes.Clone(bin)
	unused[domain+2+8+4+4*8+3] = 1
	f.Add(unused)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(data)
		if err != nil {
			return
		}
		res := Stitch(d)
		_ = BreakdownTable(res.Timelines, nil)
		_ = TailAttribution(res.Timelines, 0.99, nil)
		_ = MeasureStages(res.Timelines)
		if _, err := ChromeTrace(res, nil); err != nil {
			t.Fatalf("chrome trace of an accepted dump: %v", err)
		}
		if bytes.HasPrefix(data, dumpMagic[:]) {
			if re := d.Encode(); !bytes.Equal(re, data) {
				t.Fatalf("accepted dump does not re-encode to itself:\n  in %x\n out %x", data, re)
			}
		}
	})
}
