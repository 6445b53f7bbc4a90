package incident

import "testing"

// TestAppendWireSeparates: AppendWire writes a comma before an element
// unless the list is empty so far, so a list can be written in pieces — one
// instance's run at a time, from buffers written apart. (The bytes are held
// to encoding/json by the incident codec's tests in internal/cluster.)
func TestAppendWireSeparates(t *testing.T) {
	run2 := []Incident{New(2, 1, 5), New(2, 3, 100)}
	for _, c := range []struct {
		dst  string
		incs []Incident
		want string
	}{
		{"", nil, ""},
		{"[", nil, "["},
		{"", run2, `{"wid":2,"seqs":[1,5]},{"wid":2,"seqs":[3,100]}`},
		{"[", run2[:1], `[{"wid":2,"seqs":[1,5]}`},
		{`[{"wid":1,"seqs":[7]}`, []Incident{New(1, 9), New(12, 0, 10, 99)}, `[{"wid":1,"seqs":[7]},{"wid":1,"seqs":[9]},{"wid":12,"seqs":[0,10,99]}`},
	} {
		if got := string(AppendWire([]byte(c.dst), c.incs)); got != c.want {
			t.Errorf("AppendWire(%q, %v) = %s, want %s", c.dst, c.incs, got, c.want)
		}
	}
}
