package dirty

import (
	"math/rand/v2"
	"slices"
	"testing"

	"sfi/internal/bits"
)

// model drives two stores of one shape (the second stands for a cloned
// worker's) beside plain-slice copies of everything they should hold, and
// after every operation compares the stores with the slices.
type model[T comparable] struct {
	t    *testing.T
	val  func(byte) T
	st   [2]Store[T]
	live [2][]T // what each store should hold
	cur  int    // the store the next operation acts on

	imgs    []*Image[T]
	imgWant [][]T
	deltas  []*Delta[T]
	dWant   [][]T
	dBase   []*Baseline[T] // the baseline each delta was captured against
	bases   map[*Baseline[T]][]T
}

func newModel[T comparable](t *testing.T, n int, shift uint, val func(byte) T) *model[T] {
	m := &model[T]{t: t, val: val, bases: map[*Baseline[T]][]T{}}
	for k := range m.st {
		m.st[k] = New[T](n, shift)
		m.live[k] = make([]T, n)
	}
	return m
}

// step applies one scripted operation; a and b are its two operand bytes.
// Operations that need something the script has not made yet (an image, a
// delta, a baseline) are skipped.
func (m *model[T]) step(op, a, b byte) {
	s, live := &m.st[m.cur], m.live[m.cur]
	pick := func(n int) int { return int(a) % n }
	switch op % 10 {
	case 0, 1: // write a cell the way an owner does
		i := (int(a)<<8 | int(b)) % len(live)
		s.Cells[i] = m.val(b)
		s.Touch(i >> s.shift)
		live[i] = m.val(b)
	case 2:
		m.imgs = append(m.imgs, s.Snapshot())
		m.imgWant = append(m.imgWant, slices.Clone(live))
	case 3, 4: // delta path when the image shares the baseline, else full
		if len(m.imgs) > 0 {
			k := pick(len(m.imgs))
			if op%10 == 3 {
				s.Restore(m.imgs[k])
			} else {
				s.RestoreFull(m.imgs[k])
			}
			copy(live, m.imgWant[k])
		}
	case 5:
		if s.HasBaseline() {
			m.deltas = append(m.deltas, s.CaptureDelta())
			m.dWant = append(m.dWant, slices.Clone(live))
			m.dBase = append(m.dBase, s.Baseline())
		}
	case 6:
		if len(m.deltas) > 0 {
			if k := pick(len(m.deltas)); m.dBase[k] == s.Baseline() {
				s.RestoreDelta(m.deltas[k])
				copy(live, m.dWant[k])
			}
		}
	case 7:
		s.SetBaseline()
		m.bases[s.Baseline()] = slices.Clone(live)
	case 8: // the other store adopts this one's baseline
		if s.HasBaseline() {
			m.st[1-m.cur].AdoptBaseline(s.Baseline())
			copy(m.live[1-m.cur], m.bases[s.Baseline()])
		}
	case 9:
		m.cur = 1 - m.cur
	}
	m.check()
}

func (m *model[T]) check() {
	m.t.Helper()
	for k := range m.st {
		s, live := &m.st[k], m.live[k]
		if !slices.Equal(s.Cells, live) {
			m.t.Fatalf("store %d holds %v, want %v", k, s.Cells, live)
		}
		if s.HasBaseline() != (s.Baseline() != nil) {
			m.t.Fatalf("store %d: HasBaseline disagrees with Baseline", k)
		}
		// The invariant: a clean block equals the baseline.
		for b := range s.dirty {
			lo, hi := s.bounds(b)
			if s.dirty[b] == 0 && !slices.Equal(live[lo:hi], m.bases[s.base][lo:hi]) {
				m.t.Fatalf("store %d: clean block %d differs from the baseline", k, b)
			}
		}
	}
}

// shapes are the three instantiations the model has, each at a size that
// ends in a short block or is smaller than one block.
var shapes = []struct {
	name string
	run  func(t *testing.T, script []byte)
}{
	{"latch", func(t *testing.T, script []byte) { // latch.DB: 8-word blocks
		runScript(t, 37, 3, script, func(b byte) uint64 { return uint64(b % 4) })
	}},
	{"latch-subblock", func(t *testing.T, script []byte) {
		runScript(t, 5, 3, script, func(b byte) uint64 { return uint64(b % 4) })
	}},
	{"mem", func(t *testing.T, script []byte) { // mem.Memory: 4 KiB pages
		runScript(t, 3<<12, 12, script, func(b byte) byte { return b % 4 })
	}},
	{"mem-subpage", func(t *testing.T, script []byte) {
		runScript(t, 512, 12, script, func(b byte) byte { return b % 4 })
	}},
	{"array", func(t *testing.T, script []byte) { // array.Protected: per entry
		runScript(t, 20, 0, script, func(b byte) bits.ECCWord {
			return bits.ECCWord{Data: uint64(b % 2), Check: (b >> 1) % 2}
		})
	}},
}

// runScript runs a script of three-byte operations. Values come from a set
// of four, so that writes often put back what the baseline holds: a block
// can be dirty and equal.
func runScript[T comparable](t *testing.T, n int, shift uint, script []byte, val func(byte) T) {
	m := newModel(t, n, shift, val)
	for ; len(script) >= 3; script = script[3:] {
		m.step(script[0], script[1], script[2])
	}
}

// fullThenDelta is the order latch's TestDeltaRestoreAfterFullRestore pinned:
// baseline, write, capture a delta and an image, another image after more
// writes, full restore of the second (every block dirty), delta restore of
// the first.
var fullThenDelta = []byte{7, 0, 0, 0, 0, 1, 5, 0, 0, 2, 0, 0, 0, 0, 9, 0, 1, 2, 2, 0, 0, 4, 1, 0, 6, 0, 0, 3, 0, 0}

// shortLastBlock puts the 37-cell shape's short last block in a sparse image
// and takes every path that reads one: baseline, write cell 36, snapshot,
// write elsewhere, full restore (rebuilt from baseline and delta), delta
// restore, then the same image against a newer baseline and against the
// other store, which shares none.
var shortLastBlock = []byte{7, 0, 0, 0, 1, 2, 2, 0, 0, 0, 0, 5, 4, 0, 0, 3, 0, 0, 0, 0, 9, 7, 0, 0, 4, 0, 0, 9, 0, 0, 4, 0, 0}

// TestStoreModel drives random write / snapshot / restore / full-restore /
// delta / rebaseline / adopt sequences against the plain-slice model, for
// every shape.
func TestStoreModel(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sh.run(t, fullThenDelta)
			sh.run(t, shortLastBlock)
			rng := rand.New(rand.NewPCG(20, uint64(len(sh.name))))
			for range 40 {
				script := make([]byte, 3*150)
				for i := range script {
					script[i] = byte(rng.Uint32())
				}
				sh.run(t, script)
			}
		})
	}
}

// FuzzStore feeds arbitrary scripts to the same model; the first byte picks
// the shape.
func FuzzStore(f *testing.F) {
	for i := range shapes {
		f.Add(append([]byte{byte(i)}, fullThenDelta...))
	}
	f.Add(append([]byte{0}, shortLastBlock...))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1+3*200 {
			return
		}
		shapes[int(script[0])%len(shapes)].run(t, script[1:])
	})
}

// TestDeltaIsSparse pins what restore cost rests on: a delta holds the
// blocks that differ from the baseline and no others, and after a delta
// restore only the delta's blocks are marked.
func TestDeltaIsSparse(t *testing.T) {
	s := New[uint64](37, 3)
	s.Cells[9] = 1
	s.SetBaseline()
	if d := s.CaptureDelta(); len(d.blocks) != 0 || len(d.cells) != 0 {
		t.Fatalf("delta at the baseline holds blocks %v", d.blocks)
	}
	write := func(i int, v uint64) {
		s.Cells[i] = v
		s.Touch(i >> 3)
	}
	write(20, 5)
	write(9, 2)
	write(9, 1)  // block 1 is dirty and equal to the baseline
	write(36, 7) // the short last block
	d := s.CaptureDelta()
	if !slices.Equal(d.blocks, []int32{2, 4}) || len(d.cells) != 8+5 {
		t.Fatalf("delta holds blocks %v in %d cells, want [2 4] in 13", d.blocks, len(d.cells))
	}
	for i := range s.Cells {
		write(i, 9)
	}
	s.RestoreDelta(d)
	if want := []byte{0, 0, 1, 0, 1}; !slices.Equal(s.dirty, want) {
		t.Fatalf("after a delta restore the marks are %v, want %v", s.dirty, want)
	}
}

// TestImageIsSparse pins what a set of checkpoints costs: an image taken on a
// baseline holds that baseline by reference and its delta, and no copy of
// the store.
func TestImageIsSparse(t *testing.T) {
	s := New[uint64](37, 3)
	if img := s.Snapshot(); len(img.cells) != 37 || img.base != nil {
		t.Fatalf("image without a baseline holds %d cells, want all 37", len(img.cells))
	}
	s.SetBaseline()
	s.Cells[36] = 7
	s.Touch(36 >> 3)
	img := s.Snapshot()
	if img.cells != nil || img.base != s.Baseline() || len(img.delta.cells) != 5 {
		t.Fatalf("image on a baseline holds %d cells and a delta of %d, want none and the 5-cell last block",
			len(img.cells), len(img.delta.cells))
	}
}

// TestMisuse: the operations that need a baseline, or a matching shape,
// panic without one rather than corrupt the store.
func TestMisuse(t *testing.T) {
	based := New[uint64](16, 3)
	based.SetBaseline()
	for name, fn := range map[string]func(){
		"CaptureDelta without a baseline": func() { s := New[uint64](16, 3); s.CaptureDelta() },
		"RestoreDelta without a baseline": func() { s := New[uint64](16, 3); s.RestoreDelta(&Delta[uint64]{}) },
		"AdoptBaseline of nil":            func() { s := New[uint64](16, 3); s.AdoptBaseline(nil) },
		"AdoptBaseline across shapes":     func() { s := New[uint64](8, 3); s.AdoptBaseline(based.Baseline()) },
		"RestoreFull across shapes":       func() { s := New[uint64](8, 3); s.RestoreFull(based.Snapshot()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
