//go:build unix

package client

import (
	"io"
	"net"
	"syscall"
)

// hungUp looks at the socket without blocking and without consuming
// anything: nil while the peer may still send, the error that ended the
// connection otherwise — io.EOF for an orderly close.
func hungUp(nc net.Conn) error {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	var ended error
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
			// Nothing to read and nobody gone.
		case err != nil:
			ended = err
		case n == 0:
			ended = io.EOF
		}
		return true
	})
	if err != nil {
		return err
	}
	return ended
}
