// Package app lies outside internal/ and cmd/: it is a root, its own
// declarations are not checked, and its references count.
package app

import "testonly/internal/lib"

type namer interface{ Name() string }

func Run() (int, namer) {
	u := lib.New(2)
	return u.Value(), u
}
