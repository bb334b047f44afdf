package transport

import (
	"fmt"
	"net"
)

// The paper's prototype communicates over af_unix sockets in
// non-virtualized deployments (§3, via gVirtuS); these helpers provide
// the same, sharing the TCP transport's wire format (tcp.go).

// DialUnix connects to a runtime daemon on a unix-domain socket.
func DialUnix(path string) (Conn, error) {
	c, err := net.Dial("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: dial unix %s: %w", path, err)
	}
	return NewClientConn(c), nil
}

// ListenUnix starts accepting connections on a unix-domain socket at
// path. The socket file is removed when the listener closes.
func ListenUnix(path string) (*Listener, error) {
	l, err := net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: listen unix %s: %w", path, err)
	}
	return &Listener{l: l}, nil
}
