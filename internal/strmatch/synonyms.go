package strmatch

// SynonymFeed is an external synonym source (Section 4.1, "Synonyms"). The
// paper boosts positive compatibility and suppresses spurious conflicts when
// two values are known synonyms from feeds such as [10]. Synonymy is stored
// over normalized values and is transitive within a synonym group.
type SynonymFeed struct {
	group map[string]int // normalized value -> group id
	next  int
}

// NewSynonymFeed returns an empty feed.
func NewSynonymFeed() *SynonymFeed {
	return &SynonymFeed{group: make(map[string]int)}
}

// AddGroup records that all the given normalized values are mutually
// synonymous. Values already known are merged into the same group
// transitively: adding {a,b} then {b,c} makes a and c synonyms.
func (s *SynonymFeed) AddGroup(values ...string) {
	if len(values) == 0 {
		return
	}
	gid := -1
	for _, v := range values {
		if g, ok := s.group[v]; ok {
			if gid == -1 {
				gid = g
			} else if g != gid {
				// Merge g into gid.
				for k, kg := range s.group {
					if kg == g {
						s.group[k] = gid
					}
				}
			}
		}
	}
	if gid == -1 {
		gid = s.next
		s.next++
	}
	for _, v := range values {
		s.group[v] = gid
	}
}

// AreSynonyms reports whether two normalized values belong to the same
// synonym group. Equal values are always synonyms.
func (s *SynonymFeed) AreSynonyms(a, b string) bool {
	if a == b {
		return true
	}
	ga, ok := s.group[a]
	if !ok {
		return false
	}
	gb, ok := s.group[b]
	return ok && ga == gb
}

// Group returns the id of v's synonym group and whether v has one. Two
// distinct values are synonyms exactly when both have a group and the ids
// are equal.
func (s *SynonymFeed) Group(v string) (int, bool) {
	g, ok := s.group[v]
	return g, ok
}

// Len returns the number of values known to the feed.
func (s *SynonymFeed) Len() int { return len(s.group) }
