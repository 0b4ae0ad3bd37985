// Command cachesim is a Dinero-style trace-driven cache simulator. It
// reads an external trace — din text or mxt binary, gzip-compressed or
// not, through the same reader as the sweep engines — from a file (or
// stdin), or generates the trace of a named benchmark kernel, and
// reports hit/miss statistics with 3C miss classification.
//
// Usage:
//
//	cachesim -size 64 -line 8 -assoc 2 -trace refs.din
//	cachesim -size 64 -line 8 -kernel compress -optimized
//	cachesim -kernel sor -tiling 4 -dump-trace sor.din
//	cachesim -kernel sor -dump-trace - | traceinfo -trace -
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memexplore"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

func main() {
	var (
		size      = flag.Int("size", 64, "cache size in bytes (power of two)")
		line      = flag.Int("line", 8, "line size in bytes (power of two)")
		assoc     = flag.Int("assoc", 1, "set associativity (power of two)")
		repl      = flag.String("repl", "lru", "replacement policy: lru, fifo, random")
		wthrough  = flag.Bool("write-through", false, "write-through instead of write-back")
		noalloc   = flag.Bool("no-write-allocate", false, "do not allocate on write misses")
		traceFile = flag.String("trace", "", "din or mxt trace file, optionally gzipped ('-' for stdin)")
		kernel    = flag.String("kernel", "", "generate the trace of this benchmark kernel instead")
		nestFile  = flag.String("file", "", "generate the trace of a kernel parsed from this nest file")
		tiling    = flag.Int("tiling", 1, "tile the kernel's loops with this size")
		optimized = flag.Bool("optimized", false, "apply the §4.1 off-chip assignment to the kernel")
		dump      = flag.String("dump-trace", "", "write the trace to this din file and exit ('-' for stdout, .gz compresses)")
		sweep     = flag.String("sweep-sizes", "", "simulate several cache sizes in one pass (comma-separated bytes) and print a table")
	)
	flag.Parse()

	tr, err := loadTrace(*traceFile, *kernel, *nestFile, *tiling, *optimized, *line, *size)
	if err != nil {
		fatal(err)
	}
	if *dump != "" {
		if err := dumpTrace(tr, *dump); err != nil {
			fatal(err)
		}
		return
	}

	cfg := cachesim.DefaultConfig(*size, *line, *assoc)
	switch *repl {
	case "lru":
		cfg.Replacement = cachesim.LRU
	case "fifo":
		cfg.Replacement = cachesim.FIFO
	case "random":
		cfg.Replacement = cachesim.Random
	default:
		fatal(fmt.Errorf("unknown replacement policy %q", *repl))
	}
	cfg.WriteBack = !*wthrough
	cfg.WriteAllocate = !*noalloc

	if *sweep != "" {
		if err := runSweep(cfg, tr, *sweep); err != nil {
			fatal(err)
		}
		return
	}

	cfg.Classify = true
	st, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("configuration   %s\n", cfg)
	fmt.Printf("references      %d (reads %d, writes %d, fetches %d)\n", st.Accesses, st.Reads, st.Writes, st.Fetches)
	fmt.Printf("hits            %d (%.4f)\n", st.Hits, st.HitRate())
	fmt.Printf("misses          %d (%.4f)\n", st.Misses, st.MissRate())
	fmt.Printf("  compulsory    %d\n", st.CompulsoryMisses)
	fmt.Printf("  capacity      %d\n", st.CapacityMisses)
	fmt.Printf("  conflict      %d\n", st.ConflictMisses)
	fmt.Printf("lines fetched   %d\n", st.LinesFetched)
	fmt.Printf("write-backs     %d\n", st.WriteBacks)
	fmt.Printf("write-throughs  %d\n", st.WriteThroughs)
}

// dumpTrace writes tr in din format, size field included, to path —
// gzip-compressed when it ends in .gz, stdout for "-" — and reports the
// record count on stderr.
func dumpTrace(tr *trace.Trace, path string) error {
	var out io.Writer = os.Stdout
	var file *os.File
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		file = f
		out = f
	}
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(out)
		out = zw
	}
	n, err := extrace.WriteDin(out, tr.Reader())
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if file != nil {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d references to %s\n", n, path)
	return nil
}

// readTrace collects an external trace into memory for the simulator.
func readTrace(r io.Reader) (*trace.Trace, error) {
	rd := extrace.NewReader(r, extrace.Options{})
	defer rd.Close()
	tr := trace.New(1024)
	buf := make([]trace.Ref, 4096)
	for {
		n, err := rd.Read(buf)
		for _, ref := range buf[:n] {
			tr.Append(ref)
		}
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func loadTrace(traceFile, kernel, nestFile string, tiling int, optimized bool, lineBytes, sizeBytes int) (*trace.Trace, error) {
	given := 0
	for _, s := range []string{traceFile, kernel, nestFile} {
		if s != "" {
			given++
		}
	}
	if given > 1 {
		return nil, fmt.Errorf("give only one of -trace, -kernel, -file")
	}
	var n *memexplore.Nest
	switch {
	case traceFile != "":
		var f *os.File
		if traceFile == "-" {
			f = os.Stdin
		} else {
			var err error
			f, err = os.Open(traceFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
		}
		return readTrace(f)
	case kernel != "":
		var err error
		n, err = memexplore.Kernel(kernel)
		if err != nil {
			return nil, err
		}
	case nestFile != "":
		f, err := os.Open(nestFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		n, err = memexplore.ParseKernelReader(f)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("give -trace <file>, -kernel <name> (see 'memexplore -list'), or -file <nest>")
	}
	if tiling > 1 {
		var err error
		n, err = memexplore.Tile(n, tiling)
		if err != nil {
			return nil, err
		}
	}
	lay := memexplore.SequentialLayout(n, 0)
	if optimized {
		plan, err := memexplore.OptimizeLayout(n, lineBytes, sizeBytes/lineBytes)
		if err != nil {
			return nil, err
		}
		lay = plan.Layout
	}
	return n.Generate(lay)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}

// runSweep simulates all requested sizes in one pass over the trace
// (cachesim.Sweep) and prints a table.
func runSweep(base cachesim.Config, tr *trace.Trace, sizesCSV string) error {
	var cfgs []cachesim.Config
	for _, f := range strings.Split(sizesCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		size, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("bad size %q: %w", f, err)
		}
		cfg := base
		cfg.SizeBytes = size
		if cfg.Assoc > cfg.NumLines() {
			cfg.Assoc = cfg.NumLines()
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("empty size list %q", sizesCSV)
	}
	sweep, err := cachesim.NewSweep(cfgs)
	if err != nil {
		return err
	}
	sweep.AccessBlock(tr.Refs())
	stats := sweep.Stats()
	fmt.Printf("%-18s %10s %10s %10s\n", "configuration", "hits", "misses", "missrate")
	for i, cfg := range cfgs {
		fmt.Printf("%-18s %10d %10d %10.4f\n", cfg.String(), stats[i].Hits, stats[i].Misses, stats[i].MissRate())
	}
	return nil
}
