package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven strictly
// request-then-response. The generator owns exactly as many of these as
// the load shape says (two), so "2 connections" is a fact about sockets
// and not a hint to a connection pool. Requests are written from
// pre-built bytes and responses are read into one reused buffer, which
// keeps the generator's own CPU out of the numbers.
type conn struct {
	addr string
	c    net.Conn
	cr   countingReader
	br   *bufio.Reader
	wbuf []byte
	body bytes.Buffer
}

// countingReader counts the bytes the server sent. With one request in
// flight at a time the delta across a round trip is that response's
// exact size on the wire.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	k := &conn{addr: addr, c: c}
	k.cr.r = c
	k.br = bufio.NewReaderSize(&k.cr, 16<<10)
	return k, nil
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
	}
}

// redial replaces a connection that failed mid-request, keeping the
// reused buffers.
func (k *conn) redial() error {
	k.close()
	c, err := net.DialTimeout("tcp", k.addr, 5*time.Second)
	if err != nil {
		return err
	}
	k.c, k.cr.r = c, c
	k.br.Reset(&k.cr)
	return nil
}

// appendRequest renders one HTTP/1.1 request. The parts are
// concatenated as the body, so a unique preference text is stamped from
// its shared head and tail without an intermediate copy.
func appendRequest(dst []byte, method, path string, parts ...[]byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\n"...)
	if method != http.MethodGet {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// roundTrip writes raw request bytes and reads one response. The
// returned body aliases the connection's buffer and is valid until the
// next call. respBytes is the response's size on the wire.
func (k *conn) roundTrip(req []byte) (status int, body []byte, respBytes int, err error) {
	if err = k.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, 0, err
	}
	before := k.cr.n
	if _, err = k.c.Write(req); err != nil {
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	k.body.Reset()
	_, err = k.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	if resp.Close {
		return 0, nil, 0, fmt.Errorf("server closed the keep-alive connection")
	}
	return resp.StatusCode, k.body.Bytes(), int(k.cr.n - before), nil
}

// send renders and sends one request through the connection's reused
// write buffer. A POST or PUT without parts carries an empty body.
func (k *conn) send(method, path string, parts ...[]byte) (int, []byte, error) {
	k.wbuf = appendRequest(k.wbuf[:0], method, path, parts...)
	status, body, _, err := k.roundTrip(k.wbuf)
	return status, body, err
}

// expect sends a request and requires one of the given statuses.
func (k *conn) expect(method, path string, body []byte, want ...int) ([]byte, error) {
	status, got, err := k.send(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	for _, w := range want {
		if status == w {
			return got, nil
		}
	}
	return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(got))
}
