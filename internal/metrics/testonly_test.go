package metrics

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.samples = r.samples[:0]
	r.sorted = false
	r.mu.Unlock()
}
