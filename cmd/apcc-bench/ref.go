package main

import (
	"bytes"
	"net"
	"net/http"
	"time"
)

// refBody is the reference server's response, about the size of a
// compressed block.
var refBody = bytes.Repeat([]byte{0xa5}, 128)

// refServer is a bare net/http server on loopback that answers every
// GET with refBody. It runs no repository code, so its request rate
// measures only the host: the same clients, transport and runtime the
// workload runs on, at that moment.
type refServer struct {
	hs     *http.Server
	served chan error
	base   string
}

func startRef() (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refServer{served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	r.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(refBody)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

func (r *refServer) close() {
	r.hs.Close()
	<-r.served
}
