package cachesim

import (
	"math/rand"
	"testing"
)

// writebacksAt reads the a-way write-back count, absent indices being
// zero.
func writebacksAt(s *PerSetStacks, a int) uint64 {
	wb := s.Writebacks()
	if a >= len(wb) {
		return 0
	}
	return wb[a]
}

// TestPerSetStacksBoundedMatchesUnbounded drives identical touch streams
// through bounded and unbounded stacks: the bounded stack must report the
// same distance whenever the unbounded distance is below the bound, -1
// otherwise, and identical write-back counts at every tracked
// associativity.
func TestPerSetStacksBoundedMatchesUnbounded(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sets := range []int{1, 2, 8} {
			for _, depth := range []int{1, 2, 4, 8} {
				bounded, err := NewPerSetStacks(sets, depth)
				if err != nil {
					t.Fatal(err)
				}
				unbounded, err := NewPerSetStacks(sets, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4000; i++ {
					la := uint64(rng.Intn(64))
					write := rng.Intn(3) == 0
					db := bounded.Touch(la, write)
					du := unbounded.Touch(la, write)
					want := du
					if du < 0 || du >= depth {
						want = -1
					}
					if db != want {
						t.Fatalf("sets=%d depth=%d touch %d (la=%d): bounded %d, unbounded %d",
							sets, depth, i, la, db, du)
					}
				}
				for a := 1; a <= depth; a++ {
					if b, u := writebacksAt(bounded, a), writebacksAt(unbounded, a); b != u {
						t.Fatalf("sets=%d depth=%d: writebacks(%d) bounded %d, unbounded %d",
							sets, depth, a, b, u)
					}
				}
			}
		}
	}
}

// TestPerSetStacksReset checks that a reset stack replays to identical
// distances and write-back counts.
func TestPerSetStacksReset(t *testing.T) {
	s, err := NewPerSetStacks(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	las := make([]uint64, 500)
	for i := range las {
		las[i] = uint64(rng.Intn(32))
	}
	run := func() ([]int, []uint64) {
		ds := make([]int, len(las))
		for i, la := range las {
			ds[i] = s.Touch(la, la%3 == 0)
		}
		return ds, s.Writebacks()
	}
	d1, wb1 := run()
	s.Reset()
	d2, wb2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("touch %d: distance %d after Reset, want %d", i, d2[i], d1[i])
		}
	}
	for a := range wb1 {
		if wb1[a] != wb2[a] {
			t.Fatalf("writebacks(%d) = %d after Reset, want %d", a, wb2[a], wb1[a])
		}
	}
}

// FuzzPerSetStacks feeds arbitrary byte streams through bounded and
// unbounded stacks and checks the structural invariants: a distance is
// always below the set's occupancy at touch time, touches = hits + cold
// and out-of-bound misses, occupancy never exceeds the bound, and the
// bounded stack agrees with the unbounded oracle on distances and
// write-back counts.
func FuzzPerSetStacks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 0xFF, 7}, uint8(2), uint8(2))
	f.Add([]byte("abcabcabc"), uint8(1), uint8(4))
	f.Add([]byte{}, uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, setsRaw, depthRaw uint8) {
		sets := 1 << (setsRaw % 6)   // 1..32
		depth := 1 + int(depthRaw%8) // 1..8
		bounded, err := NewPerSetStacks(sets, depth)
		if err != nil {
			t.Fatal(err)
		}
		unbounded, err := NewPerSetStacks(sets, 0)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := 0, 0
		for i, b := range data {
			la := uint64(b &^ 1)
			write := b&1 != 0
			set := int(la) & (sets - 1)
			occ := bounded.Occupancy(set)
			if occ > depth {
				t.Fatalf("touch %d: occupancy %d exceeds depth %d", i, occ, depth)
			}
			d := bounded.Touch(la, write)
			du := unbounded.Touch(la, write)
			if d >= 0 {
				hits++
				if d >= occ {
					t.Fatalf("touch %d: distance %d not below prior occupancy %d", i, d, occ)
				}
				if d != du {
					t.Fatalf("touch %d: bounded distance %d, unbounded %d", i, d, du)
				}
			} else {
				misses++
				if du >= 0 && du < depth {
					t.Fatalf("touch %d: bounded missed but unbounded found depth %d < %d", i, du, depth)
				}
			}
		}
		if hits+misses != len(data) {
			t.Fatalf("hits %d + misses %d != touches %d", hits, misses, len(data))
		}
		for a := 1; a <= depth; a++ {
			if b, u := writebacksAt(bounded, a), writebacksAt(unbounded, a); b != u {
				t.Fatalf("writebacks(%d): bounded %d, unbounded %d", a, b, u)
			}
		}
	})
}
