//go:build !linux

package store

import (
	"errors"
	"os"
)

// mmap is linux only (see osFile); elsewhere every read is a pread.
func mmap(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmap([]byte) error { return nil }
