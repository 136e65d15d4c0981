package runtime

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseVersion: ParseVersion gives what the plain Atoi rule gives on
// every string (its digit check only spares a label Atoi's allocating
// error), and SplitRef takes back name@ref whenever ref holds no '@'.
// The committed seeds (testdata/fuzz/FuzzParseVersion) hold the refs on
// either side of that rule: signs, a bare "v", zeros, an int overflow,
// an underscore and a full-width digit.
func FuzzParseVersion(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, ref string) {
		n, err := strconv.Atoi(strings.TrimPrefix(ref, "v"))
		wantOK := err == nil && n > 0
		if !wantOK {
			n = 0
		}
		if got, ok := ParseVersion(ref); got != n || ok != wantOK {
			t.Fatalf("ParseVersion(%q) = %d, %v; Atoi rule %d, %v", ref, got, ok, n, wantOK)
		}
		if strings.Contains(ref, "@") {
			return
		}
		if gotName, gotRef := SplitRef(name + "@" + ref); gotName != name || gotRef != ref {
			t.Fatalf("SplitRef(%q) = %q, %q", name+"@"+ref, gotName, gotRef)
		}
	})
}
