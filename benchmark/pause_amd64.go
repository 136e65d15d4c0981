package main

// pause executes one PAUSE instruction: a spinning hardware thread that
// pauses leaves the core's execution units to the thread beside it.
func pause()
