package checkpoint

import (
	"fmt"
	"os"
)

// AtomicWriteFile writes data to path with the same crash-atomic discipline
// as Save (AtomicWrite: temp file beside path, fsync, rename, best-effort
// directory sync): a crash at any point leaves either the previous file or
// the complete new one, never a torn mix. The file gets the mode
// os.WriteFile would give it with perm. It is the write primitive for small
// durable records that live next to checkpoints — the serving layer's job
// journal uses it for every job-state transition.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return AtomicWrite(path, func(tmp string) error {
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_TRUNC|os.O_CREATE, perm)
		if err != nil {
			return fmt.Errorf("checkpoint: create: %w", err)
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: write: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: sync: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("checkpoint: close: %w", err)
		}
		return nil
	})
}
