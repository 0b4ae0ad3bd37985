package cachesim

// shadow3C is the state behind 3C miss classification: every line address
// ever touched, and which of those lines fully associative LRU caches of
// one or more capacities would hold right now. One open-addressed table
// maps a line address to its node, and the lines within the largest
// capacity form an index-linked LRU list. A line missing from the table is
// a compulsory miss; a line resident at a real cache's capacity is a fully
// associative hit, so a real-cache miss on it is a conflict miss; any other
// miss is a capacity miss.
//
// Several capacities share the one list: bounds[j] is the node at LRU
// position caps[j]−1, and every node carries its level, the smallest j
// whose capacity holds it. Moving a node of level l to the front pushes
// the node at each boundary below l one position down, into the next
// level, so a touch costs O(l) beyond the table lookup — a pass over a
// trace classifies against every capacity at once (the boundary form of
// Mattson's stack algorithm, bounded at the largest capacity).
//
// Nodes live in one slice, one per distinct line and never freed, so a
// touch allocates nothing beyond the amortized growth of that slice and
// of the table.
type shadow3C struct {
	caps     []int   // ascending, distinct capacities in lines
	bounds   []int32 // bounds[j]: the node at position caps[j]-1, or noNode while fewer lines are resident
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
	// level is the index of the smallest capacity holding the line;
	// len(caps) once the line has fallen out of the largest one.
	level uint8
}

const (
	noNode = -1
	// shadowTableBits sizes the initial table; it doubles whenever it
	// becomes three quarters full.
	shadowTableBits = 8
	fibHash         = 0x9e3779b97f4a7c15
)

// newShadow3C tracks fully associative LRU caches of the given capacities
// in lines, which must be ascending and distinct (at most 255 of them).
func newShadow3C(caps ...int) *shadow3C {
	s := &shadow3C{
		caps:   caps,
		bounds: make([]int32, len(caps)),
		table:  make([]int32, 1<<shadowTableBits),
		shift:  64 - shadowTableBits,
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
	for j := range s.bounds {
		s.bounds[j] = noNode
	}
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
// before (seen) and its level before the access: the index of the
// smallest capacity whose fully associative LRU cache held it, or
// len(caps) when none did. The line becomes the most recently used one,
// and the least recently used line falls out of every full capacity it
// no longer fits.
func (s *shadow3C) touch(line uint64) (seen bool, level int) {
	i := s.find(line)
	k := s.table[i]
	if k == 0 {
		n := int32(len(s.nodes))
		s.nodes = append(s.nodes, shadowNode{line: line})
		s.table[i] = n + 1
		if 4*len(s.nodes) > 3*len(s.table) {
			s.grow()
		}
		s.admit(n)
		return false, len(s.caps)
	}
	n := k - 1
	level = int(s.nodes[n].level)
	if level == len(s.caps) {
		s.admit(n)
		return true, level
	}
	if n != s.head {
		if s.bounds[level] == n {
			s.bounds[level] = s.nodes[n].prev
		}
		s.unlink(n)
		s.pushFront(n)
		s.demote(level)
		s.nodes[n].level = 0
	}
	return true, level
}

// demote moves the boundary of every level below l one position toward
// the front after a line moved there from beyond them: the node each
// boundary held now belongs to the next level.
func (s *shadow3C) demote(l int) {
	for j := 0; j < l; j++ {
		b := s.bounds[j]
		s.nodes[b].level = uint8(j + 1)
		s.bounds[j] = s.nodes[b].prev
	}
}

// admit makes the node n, resident at no capacity, the most recently used
// line, dropping the least recently used one beyond the largest capacity.
func (s *shadow3C) admit(n int32) {
	s.pushFront(n)
	s.nodes[n].level = 0
	s.resident++
	full := 0
	for full < len(s.caps) && s.bounds[full] != noNode {
		full++
	}
	s.demote(full)
	if full < len(s.caps) && s.resident == s.caps[full] {
		s.bounds[full] = s.tail
	}
	if full == len(s.caps) {
		t := s.tail
		s.unlink(t)
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
