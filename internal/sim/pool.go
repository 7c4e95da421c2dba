package sim

import (
	"runtime"
	"sync"

	"repro/internal/layout"
	"repro/internal/power"
)

// pool is the process-wide free list of idle machines, bounded at
// poolCap. A machine retargets across images and profiles via
// SetImage, keeping its memory arrays and predecode-table storage, so
// every run in the process — including each fresh session of a request
// stream — reuses a parked machine instead of allocating one. A parked
// machine keeps its last image, so the list pins at most poolCap images
// whose owners are otherwise gone. An Acquire that finds the list
// empty allocates, and a Release into a full list drops the machine:
// pooling is an optimization, never a correctness dependency.
var pool struct {
	mu   sync.Mutex
	free []*Machine
}

// poolCap is GOMAXPROCS, but at least two: one core.Session.Optimize
// holds a machine on each of its two sides at once, also on a single
// processor, where a bound of one would allocate the second machine on
// every call.
func poolCap() int { return max(runtime.GOMAXPROCS(0), 2) }

// Acquire returns a machine targeted at img under prof, in power-on
// state: a parked machine — preferably one already holding img under
// prof, whose predecode tables then survive — or a new one when none is
// idle. Hand it back with Release.
func Acquire(img *layout.Image, prof *power.Profile) *Machine {
	pool.mu.Lock()
	var m *Machine
	if n := len(pool.free); n > 0 {
		i := n - 1
		for j, pm := range pool.free {
			if pm.Img == img && pm.Profile == prof {
				i = j
				break
			}
		}
		m = pool.free[i]
		pool.free[i] = pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
	}
	pool.mu.Unlock()
	if m == nil {
		return New(img, prof)
	}
	m.Profile = prof
	m.SetImage(img)
	return m
}

// Release detaches the observer, clears the per-run knobs and parks m
// for a later Acquire, unless poolCap machines are parked already.
// The caller must not use m afterwards.
func (m *Machine) Release() {
	m.Attach(nil)
	m.MaxInstrs = 0
	m.NoFuse = false
	pool.mu.Lock()
	if len(pool.free) < poolCap() {
		pool.free = append(pool.free, m)
	}
	pool.mu.Unlock()
}
