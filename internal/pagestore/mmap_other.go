//go:build !unix

package pagestore

import "os"

// Without mmap there is no mapping to grow, and a read is a pread.
const canMap = false

func mapFile(*os.File, int) ([]byte, error) { return nil, nil }

func unmapFile([]byte) error { return nil }

// ReadPage implements Backend.
func (b *FileBackend) ReadPage(id PageID, buf []byte) error {
	_, err := b.readable(id)
	if err == nil {
		_, err = b.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	}
	return err
}
