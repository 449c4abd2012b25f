package main

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Temporary data directories live under the out directory and are removed on
// every exit path: by their owner when it is done or fails, and by the signal
// handler when the run is interrupted.
var temp struct {
	sync.Mutex
	dirs map[string]bool
}

func makeTempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	temp.Lock()
	if temp.dirs == nil {
		temp.dirs = map[string]bool{}
	}
	temp.dirs[dir] = true
	temp.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	os.RemoveAll(dir)
	temp.Lock()
	delete(temp.dirs, dir)
	temp.Unlock()
}

// removeTempDirsOnSignal makes an interrupted run clean up before it exits.
func removeTempDirsOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		temp.Lock()
		for dir := range temp.dirs {
			os.RemoveAll(dir)
		}
		os.Exit(130)
	}()
}
