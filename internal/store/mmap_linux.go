//go:build linux

package store

import (
	"math"
	"os"
	"syscall"
)

// mmap maps the first length bytes of f read-only and shared, so the
// mapping sees every write made through f.
func mmap(f *os.File, length int64) (data []byte, err error) {
	if length > math.MaxInt {
		return nil, syscall.ENOMEM
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	if cerr := rc.Control(func(fd uintptr) {
		data, err = syscall.Mmap(int(fd), 0, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
	}); cerr != nil {
		return nil, cerr
	}
	return data, err
}

func munmap(data []byte) error { return syscall.Munmap(data) }
