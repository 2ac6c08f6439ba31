//go:build !framepoison

package transport

// poisonFrames: see "Bulk frame pool" in frames.go.
const poisonFrames = false
