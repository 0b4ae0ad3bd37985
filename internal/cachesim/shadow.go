package cachesim

// shadow3C is the state behind 3C miss classification: every line address
// ever touched, and which of those lines a fully associative LRU cache of
// the same capacity would hold right now. One open-addressed table maps a
// line address to its node, and the resident nodes form an index-linked
// LRU list. A line missing from the table is a compulsory miss; a line
// whose node is resident is a fully associative hit, so a real-cache miss
// on it is a conflict miss; any other miss is a capacity miss.
//
// Nodes live in one slice, one per distinct line and never freed, so a
// touch allocates nothing beyond the amortized growth of that slice and
// of the table.
type shadow3C struct {
	capacity int
	resident int
	table    []int32 // node index + 1 per slot; 0 marks an empty slot
	shift    uint    // 64 - log2(len(table)), for Fibonacci hashing
	nodes    []shadowNode
	head     int32 // most recently used resident node, or noNode
	tail     int32 // least recently used resident node, or noNode
}

type shadowNode struct {
	line       uint64
	prev, next int32 // LRU neighbours while resident, else unused
	resident   bool
}

const (
	noNode = -1
	// shadowTableBits sizes the initial table; it doubles whenever it
	// becomes three quarters full.
	shadowTableBits = 8
	fibHash         = 0x9e3779b97f4a7c15
)

func newShadow3C(capacity int) *shadow3C {
	s := &shadow3C{
		capacity: capacity,
		table:    make([]int32, 1<<shadowTableBits),
		shift:    64 - shadowTableBits,
	}
	s.reset()
	return s
}

// reset forgets every line, keeping the allocated table and node slice.
func (s *shadow3C) reset() {
	clear(s.table)
	s.nodes = s.nodes[:0]
	s.resident = 0
	s.head, s.tail = noNode, noNode
}

// find returns the table slot holding line's node, or the empty slot
// where it belongs (linear probing from the line's Fibonacci hash).
func (s *shadow3C) find(line uint64) uint64 {
	mask := uint64(len(s.table) - 1)
	i := (line * fibHash) >> s.shift
	for k := s.table[i]; k != 0 && s.nodes[k-1].line != line; k = s.table[i] {
		i = (i + 1) & mask
	}
	return i
}

// touch records an access to line and reports whether it was touched
// before (seen) and whether it was resident in the fully associative LRU
// cache (hit). A line that was not resident becomes the most recently
// used one, evicting the least recently used line if the cache is full.
func (s *shadow3C) touch(line uint64) (seen, hit bool) {
	i := s.find(line)
	if k := s.table[i]; k != 0 {
		n := k - 1
		if !s.nodes[n].resident {
			s.admit(n)
			return true, false
		}
		if n != s.head {
			s.unlink(n)
			s.pushFront(n)
		}
		return true, true
	}
	n := int32(len(s.nodes))
	s.nodes = append(s.nodes, shadowNode{line: line})
	s.table[i] = n + 1
	if 4*len(s.nodes) > 3*len(s.table) {
		s.grow()
	}
	s.admit(n)
	return false, false
}

// admit makes the non-resident node n the most recently used resident
// line, evicting the least recently used one beyond capacity.
func (s *shadow3C) admit(n int32) {
	s.nodes[n].resident = true
	s.pushFront(n)
	s.resident++
	if s.resident > s.capacity {
		t := s.tail
		s.unlink(t)
		s.nodes[t].resident = false
		s.resident--
	}
}

func (s *shadow3C) pushFront(n int32) {
	s.nodes[n].prev = noNode
	s.nodes[n].next = s.head
	if s.head != noNode {
		s.nodes[s.head].prev = n
	} else {
		s.tail = n
	}
	s.head = n
}

func (s *shadow3C) unlink(n int32) {
	prev, next := s.nodes[n].prev, s.nodes[n].next
	if prev != noNode {
		s.nodes[prev].next = next
	} else {
		s.head = next
	}
	if next != noNode {
		s.nodes[next].prev = prev
	} else {
		s.tail = prev
	}
}

// grow doubles the table and re-inserts every node.
func (s *shadow3C) grow() {
	s.table = make([]int32, 2*len(s.table))
	s.shift--
	for n := range s.nodes {
		s.table[s.find(s.nodes[n].line)] = int32(n) + 1
	}
}
