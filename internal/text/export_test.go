package text

// Joined moves the stream's current document to the fallback, which joins
// token bytes; call it after Configure or Reset, before the first token.
// Tests and benchmarks use it to hold the two paths against each other.
func (w *WordNgramStream) Joined() { w.joined = true }

// OnIndex reports whether the stream's current document is on the word
// index.
func (w *WordNgramStream) OnIndex() bool { return !w.joined }
