package wal

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with what write produces: the bytes go
// to path+".tmp", are fsynced, renamed over path, and the directory is
// fsynced, so after a crash at any point path holds either its old
// content or the complete new content — never a prefix, never an empty
// file published by a rename that outran its data.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return replaceFile(path, path+".tmp", write, nil)
}

// replaceFile is the one copy of the tmp + fsync + rename + dir-fsync
// protocol. beforeRename, when set, runs once tmp is durable and before
// it is published (compaction's first crash point).
func replaceFile(path, tmp string, write func(io.Writer) error, beforeRename func()) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if beforeRename != nil {
			beforeRename()
		}
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best effort: some filesystems refuse directory fsync.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
