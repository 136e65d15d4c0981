package schema

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// Lookup returns the column with the given name.
func (s *Schema) Lookup(name string) (Column, bool) {
	for _, c := range s.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Equal reports structural equality.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}
