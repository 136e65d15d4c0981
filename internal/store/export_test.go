package store

import "fmt"

// CheckRaw reports the first broken raw-index invariant: every indexed
// operator's parameters are live canonical entries that list its key,
// and every entry lists only keys whose operator holds it.
func (s *ObjectStore) CheckRaw() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, op := range s.byRaw {
		for _, p := range op.Params() {
			e := s.byInstance[p]
			if e == nil || e.refs <= 0 || s.byDigest[e.digest] != e {
				return fmt.Errorf("raw key %x holds a parameter that is not stored", k[:4])
			}
			listed := false
			for _, x := range e.raw {
				listed = listed || x == k
			}
			if !listed {
				return fmt.Errorf("raw key %x missing from its parameter's list", k[:4])
			}
		}
	}
	for _, e := range s.byDigest {
		for _, k := range e.raw {
			op := s.byRaw[k]
			if op == nil {
				return fmt.Errorf("a stored parameter lists a dropped raw key %x", k[:4])
			}
			holds := false
			for _, p := range op.Params() {
				holds = holds || p == e.val
			}
			if !holds {
				return fmt.Errorf("a stored parameter lists raw key %x, whose operator does not hold it", k[:4])
			}
		}
	}
	return nil
}
