package lib

import "testonly/internal/support"

// A test file's references do not count, and its own declarations are
// not checked.
func checkOnlyInTest() bool { return OnlyInTest() == 3 && Oracle(1).n == support.Fixture() }
