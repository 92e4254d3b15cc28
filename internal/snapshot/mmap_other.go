//go:build !unix

package snapshot

import (
	"io"
	"os"
)

// mmapFile on platforms without a usable mmap syscall falls back to reading
// the file into an 8-byte-aligned heap buffer. Activation is O(file size)
// here, but the format and all readers behave identically.
func mmapFile(f *os.File, size int64) ([]byte, bool, error) {
	data := alignedBuf(int(size))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func munmap(data []byte) error { return nil }
