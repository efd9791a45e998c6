package service

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"

	"apbcc/internal/compress"
)

// verifyBlock is the tests' block oracle: a served payload must decode
// to want, the block's pack.Unpack image, and carry want's CRC in
// X-Apcc-Crc32.
func verifyBlock(codec compress.Codec, payload []byte, hdr http.Header, want []byte) error {
	plain, err := codec.DecompressAppend(nil, payload)
	if err != nil {
		return fmt.Errorf("decompress: %w", err)
	}
	if !bytes.Equal(plain, want) {
		return fmt.Errorf("plain image mismatch: %d bytes vs %d expected", len(plain), len(want))
	}
	if got, crc := hdr.Get(HeaderCRC), fmt.Sprintf("%08x", crc32.ChecksumIEEE(want)); got != crc {
		return fmt.Errorf("%s %q, want %s", HeaderCRC, got, crc)
	}
	return nil
}

// parseStagesHeader reads X-Apcc-Stages' "stage:ns;..." form into
// stage -> summed nanoseconds.
func parseStagesHeader(h string) map[string]int64 {
	out := map[string]int64{}
	for _, part := range strings.Split(h, ";") {
		stage, ns, _ := strings.Cut(part, ":")
		n, _ := strconv.ParseInt(ns, 10, 64)
		out[stage] += n
	}
	return out
}
