// Package support is imported only by lib's tests: it is reported once,
// here, and its declarations are not checked.
package support // want `package support is imported only by tests`

// Fixture has no non-test reference, but it lives in a test-support
// package, so it is not reported on its own.
func Fixture() int { return 1 }
