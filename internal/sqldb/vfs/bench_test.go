package vfs

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkWriteSync times the syscall pair every WAL commit pays, a 4 KiB
// append followed by fsync, once through a plain *os.File and once through
// OS(): the difference is the cost of the seam's indirection. fsync latency
// on shared storage is noisy and drifts, so compare the two over -count runs
// (benchstat) rather than from a single pair. The loop is written out twice
// so that the os side calls *os.File directly, not through an interface.
func BenchmarkWriteSync(b *testing.B) {
	buf := make([]byte, 4096)
	b.Run("os", func(b *testing.B) {
		f, err := os.OpenFile(filepath.Join(b.TempDir(), "wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Write(buf); err != nil {
				b.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vfs", func(b *testing.B) {
		f, err := OS().OpenFile(filepath.Join(b.TempDir(), "wal"), O_CREATE|O_WRONLY|O_APPEND)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Write(buf); err != nil {
				b.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
