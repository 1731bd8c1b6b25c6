package batcher

import (
	"sync/atomic"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/policy"
	"lakego/internal/remoting"
)

// flushReason tags why a batch was formed.
type flushReason int

const (
	flushFull flushReason = iota
	flushDeadline
)

// Wait blocks until the request is delivered and returns its outputs, one
// slice per submitted item.
//
// Flushes are driven cooperatively by waiters (there is no hidden flusher
// thread, keeping virtual time deterministic): the first waiter whose
// request is still queued becomes the leader, lingers Config.Linger of
// real time so concurrent clients can coalesce into the batch, then
// drives a deadline flush — advancing the virtual clock to the oldest
// request's enqueue time + MaxWait, exactly as a max-wait timer would
// fire. A submission that fills the batch flushes immediately from Submit
// and wakes any lingering leader.
func (p *Pending) Wait() ([][]float32, error) {
	m := p.m
	b := m.b
	for {
		select {
		case <-p.done:
			return p.out, p.err
		default:
		}
		m.mu.Lock()
		if p.taken {
			// A flush claimed the request; delivery is imminent (or done).
			m.mu.Unlock()
			<-p.done
			return p.out, p.err
		}
		if m.leader {
			// Another waiter is coalescing this generation. Wait for our
			// delivery or for the leader to step down (its flush may not
			// have reached us if the queue exceeded staging capacity).
			gone := m.leaderGone
			m.mu.Unlock()
			select {
			case <-p.done:
				return p.out, p.err
			case <-gone:
				continue
			}
		}
		m.leader = true
		m.leaderGone = make(chan struct{})
		var full chan struct{}
		if b.cfg.Linger > 0 {
			full = make(chan struct{})
			m.fullSig = full
		}
		m.mu.Unlock()

		if full != nil {
			t := time.NewTimer(b.cfg.Linger)
			select {
			case <-full: // batch filled; Submit flushed it
			case <-t.C: // linger expired; drive the deadline flush
			case <-p.done: // our request was delivered mid-linger
			}
			t.Stop()
		}

		m.mu.Lock()
		m.leader = false
		if m.fullSig == full {
			m.fullSig = nil
		}
		close(m.leaderGone)
		var batch []*Pending
		if !p.taken {
			batch = m.takeLocked()
		}
		m.mu.Unlock()
		if batch != nil {
			b.execute(m, batch, flushDeadline, batch[0].enq+b.cfg.MaxWait)
		}
		// Loop: either our request was in that batch (delivered) or it is
		// still queued behind staging capacity and we lead another round.
	}
}

// execute runs one formed batch to completion and delivers every request.
// formedAt is the virtual instant the batch was formed: the oldest
// request's deadline for a deadline flush, the filling request's enqueue
// for a full flush. Flushes of the same model are serialized: there is one
// device staging area per model, like one CUDA stream per lakeD model
// context. A batch formed while an earlier flush holds the stream waits for
// it; that wait is the batch's stream wait, reported apart from its queue
// delay, which ends at formation.
func (b *Batcher) execute(m *model, batch []*Pending, reason flushReason, formedAt time.Duration) {
	m.execMu.Lock()
	defer m.execMu.Unlock()

	clock := b.rt.Clock()
	if reason == flushDeadline {
		// The max-wait timer fires at the oldest request's deadline; on
		// the virtual clock the flush happens at exactly that instant
		// (no-op if the clock is already past it).
		clock.AdvanceTo(formedAt)
	}
	flushAt := clock.Now()
	items := 0
	for _, p := range batch {
		items += p.count
		// A request that arrived after its batch's deadline (and so
		// triggered the overdue flush from Submit) waited for nothing.
		d := max(int64(formedAt-p.enq), 0)
		storeMax(&b.maxDelay, d)
		b.tel.QueueDelay.Observe(d)
	}
	streamWait := int64(flushAt - formedAt)
	storeMax(&b.maxStreamWait, streamWait)
	b.tel.StreamWait.Observe(streamWait)
	b.tel.FlushItems.Observe(int64(items))
	// One trace ID per flush: the remoted command and its daemon-side
	// events correlate under it, while each member request keeps its own
	// ID (linked by flush_member events on both sides).
	var ftid uint64
	if b.rec.Enabled() {
		ftid = b.rec.NextTraceID()
	}
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvFlushStart,
		ftid, batch[0].seq, 0, uint64(len(batch)), uint64(reason), uint64(streamWait))
	for _, p := range batch {
		b.rec.Emit(flightrec.DomainBatcher, flightrec.EvFlushMember,
			p.tid, p.seq, 0, ftid, uint64(p.count), 0)
	}
	b.flushes.Add(1)
	if reason == flushFull {
		b.fullFlushes.Add(1)
	} else {
		b.deadlineFlushes.Add(1)
	}

	// Adaptive sizing: the Fig 3 policy sees the formed batch and routes
	// the whole flush to the GPU only when it is profitable and the
	// device is uncontended.
	dec := policy.UseGPU
	if b.cfg.Policy != nil {
		dec = b.cfg.Policy(items)
	}
	var flushErr error
	// perRes is aligned 1:1 with batch when usePer is set (the Into call
	// verifies every response pair's sequence against its entry).
	var perRes []cuda.Result
	usePer := false
	ranOnGPU := false
	if dec == policy.UseGPU {
		b.gpuFlushes.Add(1)
		ranOnGPU = true
		entries := m.entriesScratch[:0]
		for _, p := range batch {
			entries = append(entries, remoting.BatchEntry{
				Seq:     p.seq,
				InOff:   uint64(p.inBuf.Offset()),
				OutOff:  uint64(p.outBuf.Offset()),
				Count:   uint32(p.count),
				TraceID: p.tid,
			})
		}
		m.entriesScratch = entries
		// Per-flush placement: on a multi-device pool each launch goes to
		// the least-utilized eligible device's staging spec.
		spec := m.specs[0]
		if b.pool != nil {
			spec = m.specs[b.pool.PlaceFlush(nil)]
		}
		res, r := b.rt.Lib().CuBatchedInferInto(m.mc.Name, spec, entries, ftid, &m.wireScratch)
		switch r {
		case cuda.Success:
			perRes, usePer = res, true
		case cuda.ErrNotReady:
			// lakeD is unavailable (declared dead and not recovered): the
			// kernel must still answer its clients, so the formed batch
			// completes on the CPU fallback at its calibrated cost.
			b.fallbackFlushes.Add(1)
			ranOnGPU = false
			flushErr = m.runCPU(batch)
			clock.Advance(m.mc.CPUFixed + time.Duration(items)*m.mc.CPUPerItem)
		default:
			flushErr = r.Err()
		}
	} else {
		b.cpuFlushes.Add(1)
		flushErr = m.runCPU(batch)
		clock.Advance(m.mc.CPUFixed + time.Duration(items)*m.mc.CPUPerItem)
	}

	now := clock.Now()
	var onGPU uint64
	if ranOnGPU {
		onGPU = 1
	}
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvFlushEnd,
		ftid, batch[0].seq, 0, uint64(len(batch)), onGPU, 0)
	if flushErr == nil && items > 0 {
		// Per-item execution latency on the path that actually ran — the
		// observed signal the Fig 3 policy can use in place of the model.
		perItem := (now - flushAt) / time.Duration(items)
		if ranOnGPU {
			b.tel.GPUItemLatency.ObserveDuration(perItem)
		} else {
			b.tel.CPUItemLatency.ObserveDuration(perItem)
		}
	}
	region := b.rt.Region()
	for i, p := range batch {
		err := flushErr
		if err == nil && usePer {
			if i >= len(perRes) {
				err = cuda.ErrUnknown.Err()
			} else if perRes[i] != cuda.Success {
				err = perRes[i].Err()
			}
		}
		if err == nil {
			p.out, err = p.unpackOut()
		}
		p.err = err
		p.doneAt = now
		region.Free(p.inBuf)
		region.Free(p.outBuf)
		p.c.outstanding.Add(-1)
		close(p.done)
	}
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runCPU executes a flush on the kernel CPU fallback path: real forward
// passes written straight into each request's output slice. The calibrated
// kernel-space cost is charged by the caller.
func (m *model) runCPU(batch []*Pending) error {
	fwd := m.mc.forward() // resolved once: the whole flush runs one model version
	for _, p := range batch {
		flat, err := cuda.Float32s(p.inBuf.Bytes(), p.count*m.mc.InputWidth)
		if err != nil {
			return err
		}
		out := make([]float32, 0, p.count*m.mc.OutputWidth)
		for i := 0; i < p.count; i++ {
			if fwd == nil {
				out = append(out, make([]float32, m.mc.OutputWidth)...)
				continue
			}
			out = append(out, fwd(flat[i*m.mc.InputWidth:(i+1)*m.mc.InputWidth], nil)...)
		}
		if err := cuda.PutFloat32s(p.outBuf.Bytes(), out); err != nil {
			return err
		}
	}
	return nil
}

// unpackOut copies the request's delivered output slice out of lakeShm
// (the shm slices are freed on delivery).
func (p *Pending) unpackOut() ([][]float32, error) {
	w := p.m.mc.OutputWidth
	flat, err := cuda.Float32s(p.outBuf.Bytes(), p.count*w)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, p.count)
	for i := range out {
		row := make([]float32, w)
		copy(row, flat[i*w:(i+1)*w])
		out[i] = row
	}
	return out, nil
}
