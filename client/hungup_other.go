//go:build !unix

package client

import "net"

// hungUp cannot look at a socket without blocking here: a connection
// that died idle is noticed by the next request on it.
func hungUp(net.Conn) error { return nil }
