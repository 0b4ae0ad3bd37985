package trace

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Read, "read"},
		{Write, "write"},
		{Fetch, "fetch"},
		{Kind(9), "Kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestRefEffectiveSize(t *testing.T) {
	if got := (Ref{}).EffectiveSize(); got != 1 {
		t.Errorf("zero Size should default to 1, got %d", got)
	}
	if got := (Ref{Size: 4}).EffectiveSize(); got != 4 {
		t.Errorf("Size 4 -> %d", got)
	}
	r := Ref{Addr: 100, Size: 4}
	if got := r.LastByte(); got != 103 {
		t.Errorf("LastByte = %d, want 103", got)
	}
}

func TestTraceEmitAndReader(t *testing.T) {
	tr := New(0)
	refs := []Ref{{Addr: 1}, {Addr: 2, Kind: Write}, {Addr: 3, Kind: Fetch}}
	for _, r := range refs {
		if err := tr.Emit(r); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	src := tr.Reader()
	for i := 0; ; i++ {
		r, err := src.Next()
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("EOF after %d refs, want 3", i)
			}
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if r != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, r, refs[i])
		}
	}
}

func TestTraceCounts(t *testing.T) {
	tr := FromRefs([]Ref{{Kind: Read}, {Kind: Write}, {Kind: Read}, {Kind: Fetch}})
	if got := tr.Reads(); got != 2 {
		t.Errorf("Reads = %d, want 2", got)
	}
	if got := tr.Writes(); got != 1 {
		t.Errorf("Writes = %d, want 1", got)
	}
}

func TestAddrRange(t *testing.T) {
	if _, _, ok := New(0).AddrRange(); ok {
		t.Error("empty trace should report ok=false")
	}
	tr := FromRefs([]Ref{{Addr: 50, Size: 4}, {Addr: 10}, {Addr: 49}})
	lo, hi, ok := tr.AddrRange()
	if !ok || lo != 10 || hi != 53 {
		t.Errorf("AddrRange = (%d,%d,%v), want (10,53,true)", lo, hi, ok)
	}
}

func TestSequential(t *testing.T) {
	tr := Sequential(100, 5, 4)
	want := []uint64{100, 104, 108, 112, 116}
	for i, w := range want {
		if tr.At(i).Addr != w {
			t.Errorf("addr %d = %d, want %d", i, tr.At(i).Addr, w)
		}
	}
}

func TestLoop(t *testing.T) {
	tr := Loop(0, 8, 2, 3)
	if tr.Len() != 12 {
		t.Fatalf("Len = %d, want 12", tr.Len())
	}
	// Each pass covers addresses 0,2,4,6.
	for p := 0; p < 3; p++ {
		for i := 0; i < 4; i++ {
			if got := tr.At(p*4 + i).Addr; got != uint64(i*2) {
				t.Errorf("pass %d ref %d addr = %d, want %d", p, i, got, i*2)
			}
		}
	}
	// Zero stride must not divide by zero.
	if got := Loop(0, 4, 0, 1).Len(); got != 4 {
		t.Errorf("Loop with stride 0 Len = %d, want 4", got)
	}
}

func TestPingPong(t *testing.T) {
	tr := PingPong(0, 64, 3)
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	for i := 0; i < 6; i++ {
		want := uint64(0)
		if i%2 == 1 {
			want = 64
		}
		if tr.At(i).Addr != want {
			t.Errorf("ref %d addr = %d, want %d", i, tr.At(i).Addr, want)
		}
	}
}

func TestRandomInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Random(rng, 1000, 256, 500)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		a := tr.At(i).Addr
		if a < 1000 || a >= 1256 {
			t.Fatalf("ref %d addr %d out of [1000,1256)", i, a)
		}
	}
}

func TestInterleave(t *testing.T) {
	a := Sequential(0, 3, 1)
	b := Sequential(100, 2, 1)
	got := Interleave(a, b)
	want := []uint64{0, 100, 1, 101, 2}
	if got.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		if got.At(i).Addr != w {
			t.Errorf("ref %d = %d, want %d", i, got.At(i).Addr, w)
		}
	}
}

func TestConcat(t *testing.T) {
	a := Sequential(0, 2, 1)
	b := Sequential(10, 2, 1)
	got := Concat(a, b)
	want := []uint64{0, 1, 10, 11}
	for i, w := range want {
		if got.At(i).Addr != w {
			t.Errorf("ref %d = %d, want %d", i, got.At(i).Addr, w)
		}
	}
}

// Property: Interleave preserves the multiset of references.
func TestQuickInterleavePreservesRefs(t *testing.T) {
	f := func(na, nb uint8) bool {
		a := Sequential(0, int(na%64), 1)
		b := Sequential(1000, int(nb%64), 1)
		got := Interleave(a, b)
		if got.Len() != a.Len()+b.Len() {
			return false
		}
		seen := map[uint64]int{}
		for i := 0; i < got.Len(); i++ {
			seen[got.At(i).Addr]++
		}
		for i := 0; i < a.Len(); i++ {
			seen[a.At(i).Addr]--
		}
		for i := 0; i < b.Len(); i++ {
			seen[b.At(i).Addr]--
		}
		for _, v := range seen {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
