// Command apcc-lint runs the repo's static invariant suite
// (internal/analysis), five analyzers: the append-API dst-prefix
// contract, ErrCorrupt discipline, lock hygiene, single-goroutine obs
// traces, and suppression-comment validity.
//
// It runs two ways:
//
//	apcc-lint ./...                     # standalone: re-execs go vet -vettool=itself
//	go vet -vettool=$(which apcc-lint) ./...
//
// Both forms use cmd/go for package loading, so analysis always sees
// the same files and build tags the compiler does. Exit status
// follows the repo's lint-tool convention: 0 = clean, 1 = findings,
// 2 = usage or internal error.
//
// Suppress an individual finding with a reasoned comment on or above
// the flagged line:
//
//	//apcc:allow <analyzer> <reason>
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"apbcc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apcc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		vFlag     = fs.String("V", "", "print version and exit (cmd/go tool protocol; only -V=full is supported)")
		flagsFlag = fs.Bool("flags", false, "print the tool's flag set as JSON (cmd/go tool protocol)")
		listFlag  = fs.Bool("list", false, "list the suite's analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: apcc-lint [packages]   (default ./...)\n")
		fmt.Fprintf(stderr, "       go vet -vettool=$(which apcc-lint) [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *vFlag != "":
		// cmd/go runs `tool -V=full` and folds the output into its
		// build cache key; the content hash of the executable makes
		// rebuilt tools invalidate cached vet results.
		if *vFlag != "full" {
			fmt.Fprintf(stderr, "apcc-lint: unsupported flag value -V=%s\n", *vFlag)
			return 2
		}
		return printVersion(stdout, stderr)
	case *flagsFlag:
		// cmd/go queries the tool's flags; the suite exposes none.
		fmt.Fprintln(stdout, "[]")
		return 0
	case *listFlag:
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	// Unit mode: cmd/go invokes the tool with a single *.cfg path.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.RunVetUnit(rest[0], stderr)
	}

	// Standalone mode: delegate loading to cmd/go by re-invoking
	// ourselves as the vettool.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "apcc-lint:", err)
		return 2
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, rest...)...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return 1 // findings (or a build failure go vet already reported)
		}
		fmt.Fprintln(stderr, "apcc-lint:", err)
		return 2
	}
	return 0
}

// printVersion implements the -V=full handshake in the same shape as
// x/tools vet plugins: name, the word "version", and a build ID
// derived from the executable's content hash.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "apcc-lint:", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "apcc-lint:", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "apcc-lint:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s version devel buildID=%x\n", os.Args[0], h.Sum(nil))
	return 0
}
