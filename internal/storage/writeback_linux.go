//go:build linux && !arm

package storage

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE of <linux/fs.h>: start
// writing the range's dirty pages out, and wait for none of it.
const syncFileRangeWrite = 0x2

// writeBack starts asynchronous write-back of the bytes [off, off+n) of b's
// file with sync_file_range(2). The call is advisory: when it fails, or b
// holds no descriptor (an in-memory backing), the range is written back by
// the next Sync as it would have been without the call, so its error is
// ignored.
func writeBack(b backing, off, n int64) {
	c, ok := b.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := c.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
