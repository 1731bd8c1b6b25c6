package flightrec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Dump is a flight-recorder snapshot: the crash artifact. It round-trips
// through a compact little-endian binary encoding (the laked
// /flightrec.dump endpoint, CI artifacts) and through JSON (the
// /flightrec.json endpoint, human inspection); ReadDump accepts either.
type Dump struct {
	Version int           `json:"version"`
	Reason  string        `json:"reason"`
	VNow    time.Duration `json:"v_now_ns"`
	WallNow int64         `json:"wall_now_ns"`
	Domains []DomainDump  `json:"domains"`
}

// DomainDump is one domain's surviving events plus its explicit loss count.
type DomainDump struct {
	Domain  Domain  `json:"domain"`
	Name    string  `json:"name"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// TotalEvents counts events across domains.
func (d *Dump) TotalEvents() int {
	n := 0
	for _, dd := range d.Domains {
		n += len(dd.Events)
	}
	return n
}

// TotalDropped totals the per-domain loss counts.
func (d *Dump) TotalDropped() uint64 {
	var n uint64
	for _, dd := range d.Domains {
		n += dd.Dropped
	}
	return n
}

const dumpVersion = 1

// dumpMagic leads the binary encoding; the trailing newline keeps the file
// recognizable in a pager.
var dumpMagic = [8]byte{'L', 'A', 'K', 'E', 'F', 'R', '1', '\n'}

// Encode serializes the dump in the binary format.
func (d *Dump) Encode() []byte {
	out := make([]byte, 0, 64+d.TotalEvents()*eventWords*8)
	out = append(out, dumpMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Version))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(d.Reason)))
	out = append(out, d.Reason...)
	out = binary.LittleEndian.AppendUint64(out, uint64(d.VNow))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.WallNow))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(d.Domains)))
	for _, dd := range d.Domains {
		out = binary.LittleEndian.AppendUint16(out, uint16(dd.Domain))
		out = binary.LittleEndian.AppendUint64(out, dd.Dropped)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(dd.Events)))
		for _, e := range dd.Events {
			for _, w := range e.pack() {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
		}
	}
	return out
}

// JSON serializes the dump as indented JSON.
func (d *Dump) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", " ")
}

// ReadDump parses a dump from either encoding, sniffing JSON by its leading
// brace.
func ReadDump(data []byte) (*Dump, error) {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			d := new(Dump)
			if err := json.Unmarshal(data, d); err != nil {
				return nil, fmt.Errorf("flightrec: bad JSON dump: %w", err)
			}
			return d, nil
		}
		break
	}
	return decodeBinary(data)
}

func decodeBinary(data []byte) (*Dump, error) {
	r := byteReader{buf: data}
	magic, err := r.take(len(dumpMagic))
	if err != nil || string(magic) != string(dumpMagic[:]) {
		return nil, fmt.Errorf("flightrec: not a flight-recorder dump")
	}
	d := new(Dump)
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	d.Version = int(ver)
	if d.Version != dumpVersion {
		return nil, fmt.Errorf("flightrec: unsupported dump version %d", d.Version)
	}
	rlen, err := r.u16()
	if err != nil {
		return nil, err
	}
	reason, err := r.take(int(rlen))
	if err != nil {
		return nil, err
	}
	d.Reason = string(reason)
	vnow, err := r.u64()
	if err != nil {
		return nil, err
	}
	d.VNow = time.Duration(vnow)
	wall, err := r.u64()
	if err != nil {
		return nil, err
	}
	d.WallNow = int64(wall)
	ndom, err := r.u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(ndom); i++ {
		var dd DomainDump
		dom, err := r.u16()
		if err != nil {
			return nil, err
		}
		if dom > math.MaxUint8 {
			return nil, fmt.Errorf("flightrec: domain id %d out of range", dom)
		}
		dd.Domain = Domain(dom)
		dd.Name = dd.Domain.String()
		if dd.Dropped, err = r.u64(); err != nil {
			return nil, err
		}
		nev, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(nev) > r.remaining()/(eventWords*8) {
			return nil, fmt.Errorf("flightrec: truncated dump")
		}
		dd.Events = make([]Event, nev)
		for j := range dd.Events {
			var w [eventWords]uint64
			for k := range w {
				if w[k], err = r.u64(); err != nil {
					return nil, err
				}
			}
			if w[4]&unusedBits != 0 {
				return nil, fmt.Errorf("flightrec: event %d of domain %d sets unused bits %#x", j, dom, w[4]&unusedBits)
			}
			dd.Events[j] = unpackEvent(w)
		}
		d.Domains = append(d.Domains, dd)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("flightrec: %d trailing bytes after dump", r.remaining())
	}
	return d, nil
}

type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) remaining() int { return len(r.buf) - r.pos }

func (r *byteReader) take(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("flightrec: truncated dump")
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *byteReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *byteReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
