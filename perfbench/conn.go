package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"

	"abase/internal/resp"
)

// conn is one client connection speaking RESP2. Commands are buffered
// by send and go out on flush, so a caller pipelines by sending
// several commands before one flush.
type conn struct {
	nc  net.Conn
	w   *bufio.Writer
	r   *resp.Reader
	num []byte
}

// dialConn connects and selects the tenant with AUTH, as an
// application using abase-server does.
func dialConn(addr, tenant string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &conn{nc: nc, w: bufio.NewWriterSize(nc, 64<<10), r: resp.NewReader(nc)}
	c.send([]byte("AUTH"), []byte(tenant))
	v, err := c.roundTrip()
	if err == nil && (v.Kind != resp.SimpleString || v.Text() != "OK") {
		err = fmt.Errorf("AUTH replied %q", v.Text())
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("auth: %w", err)
	}
	return c, nil
}

// send buffers one command.
func (c *conn) send(args ...[]byte) {
	c.header('*', len(args))
	for _, a := range args {
		c.header('$', len(a))
		c.w.Write(a)
		c.w.WriteString("\r\n")
	}
}

func (c *conn) header(kind byte, n int) {
	c.num = append(c.num[:0], kind)
	c.num = strconv.AppendInt(c.num, int64(n), 10)
	c.num = append(c.num, '\r', '\n')
	c.w.Write(c.num)
}

// flush writes every buffered command to the socket.
func (c *conn) flush() error { return c.w.Flush() }

// read returns the next reply.
func (c *conn) read() (resp.Value, error) { return c.r.Read() }

// roundTrip flushes and reads one reply.
func (c *conn) roundTrip() (resp.Value, error) {
	if err := c.flush(); err != nil {
		return resp.Value{}, err
	}
	return c.read()
}

func (c *conn) Close() error { return c.nc.Close() }
