package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/vtime"
)

// refHistory is the reference busy-span history: every span in one slice,
// pruned by dropping the expired prefix, every Utilization query a scan of
// the whole slice. Device must retain exactly its spans and return exactly
// its utilization.
type refHistory struct {
	clock     *vtime.Clock
	busyUntil time.Duration
	maxWindow time.Duration
	spans     []refSpan
}

type refSpan struct {
	client     string
	start, end time.Duration
}

func (h *refHistory) record(client string, start, end time.Duration) {
	h.spans = append(h.spans, refSpan{client, start, end})
	horizon := utilizationHistory
	if h.maxWindow > horizon {
		horizon = h.maxWindow
	}
	i := 0
	for i < len(h.spans) && h.spans[i].end < end-horizon {
		i++
	}
	h.spans = append(h.spans[:0], h.spans[i:]...)
}

// execute mirrors Device.Execute's span; call it before the device's
// Execute, which advances the clock.
func (h *refHistory) execute(client string, cost time.Duration) {
	start := h.clock.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	h.busyUntil = start + cost
	h.record(client, start, start+cost)
}

func (h *refHistory) occupyUntil(client string, t time.Duration) {
	start := h.clock.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	if t < start {
		return
	}
	h.busyUntil = t
	h.record(client, start, t)
}

func (h *refHistory) occupySpan(client string, start, end time.Duration) {
	if end <= start {
		return
	}
	if end > h.busyUntil {
		h.busyUntil = end
	}
	h.record(client, start, end)
}

func (h *refHistory) utilization(window time.Duration, client string) float64 {
	if window <= 0 {
		return 0
	}
	if window > h.maxWindow {
		h.maxWindow = window
	}
	now := h.clock.Now()
	from := now - window
	if from < 0 {
		from = 0
		window = now
		if window == 0 {
			return 0
		}
	}
	var busy time.Duration
	for _, s := range h.spans {
		if s.end <= from || (client != "" && s.client != client) {
			continue
		}
		st, en := s.start, s.end
		if st < from {
			st = from
		}
		if en > now {
			en = now
		}
		if en > st {
			busy += en - st
		}
	}
	u := float64(busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// retained lists the device's live spans in the reference's form.
func retained(d *Device) []refSpan {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make(map[int32]string, len(d.clientIDs))
	for name, id := range d.clientIDs {
		names[id] = name
	}
	var out []refSpan
	for i := 0; i < d.spanCount; i++ {
		s := d.spanAt(i)
		out = append(out, refSpan{names[s.client], s.start, s.end})
	}
	return out
}

// Property: over random mixes of launches, out-of-order OccupySpan slices,
// OccupyUntil, stream work, idle gaps past the 5-s horizon, retention
// changes and first-widening queries, Device keeps exactly the reference's
// span set and returns exactly the reference's utilization for every
// window and client filter.
func TestQuickUtilizationMatchesReference(t *testing.T) {
	clients := []string{"a", "b", "c"}
	filters := []string{"", "a", "b", "c", "never"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := vtime.New()
		d := New(DefaultSpec(), clk)
		ref := &refHistory{clock: clk}
		streams := make([]*Stream, len(clients))
		for i, c := range clients {
			streams[i] = d.NewStream(c)
		}
		dur := func(max time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(max))) }
		for op := 0; op < 600; op++ {
			ci := rng.Intn(len(clients))
			client := clients[ci]
			switch k := rng.Intn(10); k {
			case 0, 1:
				cost := dur(300 * time.Microsecond)
				ref.execute(client, cost)
				d.Execute(client, cost, nil)
			case 2:
				// Arbitrary slices around now: ends recorded out of order.
				start := clk.Now() - dur(6*time.Second) + dur(time.Second)
				end := start + dur(200*time.Millisecond) - 10*time.Millisecond
				ref.occupySpan(client, start, end)
				d.OccupySpan(client, start, end)
			case 3:
				until := clk.Now() + dur(50*time.Millisecond) - 5*time.Millisecond
				ref.occupyUntil(client, until)
				d.OccupyUntil(client, until)
			case 4:
				s := streams[ci]
				start := clk.Now()
				if at := s.CompletesAt(); at > start {
					start = at
				}
				if rng.Intn(2) == 0 {
					n := rng.Int63n(1 << 20)
					ref.occupySpan(client, start, start+d.TransferTime(n))
					s.EnqueueTransfer(n, nil)
				} else {
					flops := float64(rng.Int63n(1 << 30))
					ref.occupySpan(client, start, start+d.Spec().LaunchOverhead+d.ComputeTime(flops))
					s.EnqueueCompute(flops, nil)
				}
			case 5:
				clk.Advance(dur(400 * time.Millisecond))
			case 6:
				if rng.Intn(8) == 0 {
					w := 5*time.Second + dur(4*time.Second)
					ref.maxWindow = max(ref.maxWindow, w)
					d.SetUtilizationRetention(w)
				}
			default:
				// Mostly windows inside the horizon, sometimes wider than
				// anything asked so far.
				w := dur(2 * time.Second)
				if rng.Intn(4) == 0 {
					w = 4*time.Second + dur(8*time.Second)
				}
				filter := filters[rng.Intn(len(filters))]
				want := ref.utilization(w, filter)
				if got := d.Utilization(w, filter); got != want {
					t.Logf("seed %d op %d: Utilization(%v, %q) = %v, reference %v", seed, op, w, filter, got, want)
					return false
				}
			}
			got := retained(d)
			if len(got) != len(ref.spans) {
				t.Logf("seed %d op %d: %d spans retained, reference %d", seed, op, len(got), len(ref.spans))
				return false
			}
			for i := range got {
				if got[i] != ref.spans[i] {
					t.Logf("seed %d op %d: span %d = %+v, reference %+v", seed, op, i, got[i], ref.spans[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
