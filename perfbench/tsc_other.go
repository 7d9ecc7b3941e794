//go:build !amd64

package main

// ticks falls back to the monotonic clock where there is no time-stamp
// counter to read.
func ticks() int64 { return now() }
