package codec

import (
	"hash/crc32"
	"os"
	"path/filepath"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-C every framed or checksummed format uses.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves either the old file or the new one: the bytes go to path.tmp,
// which is fsynced, renamed over path, and the rename made durable with a
// directory fsync. beforeRename, if non-nil, runs between the fsync and
// the rename (a crash-injection seam); its error is returned as is.
func WriteFileAtomic(path string, data []byte, beforeRename func() error) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
