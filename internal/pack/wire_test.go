package pack

import (
	"bytes"
	"encoding/binary"
)

// Container writers for tests that hand-build hostile containers.

func writeUvarint(buf *bytes.Buffer, v uint64) {
	buf.Write(binary.AppendUvarint(nil, v))
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	writeUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

func writeFixed32(buf *bytes.Buffer, v uint32) {
	buf.Write(binary.LittleEndian.AppendUint32(nil, v))
}
