package main

// ticks reads the time-stamp counter without serializing the pipeline, so
// a timed component keeps overlapping with its neighbours as it does
// untraced.
func ticks() int64
