//go:build !linux || arm

package storage

// writeBack is a no-op where the syscall package has no sync_file_range
// (every platform but Linux, and 32-bit ARM Linux): the next Sync writes
// every page back, as it does after the hint where there is one.
func writeBack(b backing, off, n int64) {}
