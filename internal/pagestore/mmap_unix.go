//go:build unix

package pagestore

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// canMap says that FileBackend reads through a mapping of its file.
const canMap = true

// mapFile maps size bytes of f read-only and shared: the mapping sees every
// pwrite to the file, and pages past the file's end fault until it grows.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(m []byte) error { return syscall.Munmap(m) }

// ReadPage implements Backend: a bounds check and one copy out of the
// mapping, no system call. A fault in the copy (the file truncated under the
// backend, or the mapping gone) is returned as an error, not a crash.
func (b *FileBackend) ReadPage(id PageID, buf []byte) (err error) {
	m, err := b.readable(id)
	if err != nil {
		return err
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, fault := r.(interface{ Addr() uintptr }); !fault {
			panic(r)
		}
		err = fmt.Errorf("pagestore: read page %d: %w", id, r.(error))
	}()
	copy(buf[:PageSize], m[int(id)*PageSize:])
	return nil
}
