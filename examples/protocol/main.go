// Protocol example: the full front-end pipeline on an interprocedural
// program written in the textual mini-IR — the workflow a downstream user
// of the library would follow.
//
// The program models a small server: connections are taken from a pool,
// filled with buffers, and registered in a global registry on some paths.
// A File object is opened and closed through a helper. The example parses
// the program, runs the 0-CFA points-to analysis, lowers it by inlining,
// and answers its explicit queries with TRACER:
//
//   - qFile: a File-protocol type-state query (provable — the cheapest
//     abstraction tracks the variables that carry the file between frames);
//   - qPriv: a thread-escape query on a connection that never escapes
//     (provable with a small number of L-mapped sites);
//   - qBuf:  a thread-escape query on a buffer that escapes *transitively*:
//     it is attached to a connection that is published to the registry, so
//     no abstraction can prove it thread-local (impossible);
//   - qLeak: a thread-escape query on the published connection itself
//     (impossible for every abstraction).
package main

import (
	"fmt"
	"sort"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/typestate"
)

const src = `
global registry

class File {
  native method open(this)
  native method close(this)
}

class Logger {
  field sink
  method log(this, f) {
    f.close()
    return f
  }
}

class Conn {
  field buf
  method attach(this, b) {
    this.buf = b
  }
  method publish(this) {
    if * {
      registry = this
    }
  }
}

class Main {
  method main(this) {
    var f, lg, c, b, f2
    f = new File @ hFile
    f.open()
    lg = new Logger @ hLogger
    f2 = lg.log(f)
    query qFile state(f2: closed)

    c = new Conn @ hConn
    b = new Conn @ hBuf
    c.attach(b)
    c.publish()
    query qLeak local(c)
    query qBuf local(b)

    var d, b2
    d = new Conn @ hPriv
    b2 = new Conn @ hBuf2
    d.attach(b2)
    query qPriv local(d)
  }
}
`

func main() {
	prog, err := driver.Load(src)
	if err != nil {
		panic(err)
	}
	stats := prog.ComputeStats(src)
	fmt.Printf("Loaded program: %d classes, %d methods, %d lowered atoms\n",
		stats.TotalClasses, stats.TotalMethods, stats.TotalAtoms)
	fmt.Printf("Abstraction families: 2^%d (type-state, variables), 2^%d (thread-escape, sites)\n\n",
		stats.TypestateParams, stats.EscapeParams)

	opts := core.Options{Timeout: 10 * time.Second}

	type query struct {
		name      string
		job       core.Problem
		paramName func(int) string
	}
	var queries []query
	tsJobs, err := prog.ExplicitTypestateJobs(typestate.FileProperty(), 5)
	if err != nil {
		panic(err)
	}
	for name, job := range tsJobs {
		queries = append(queries, query{name, job, job.ParamName})
	}
	for name, job := range prog.ExplicitEscapeJobs(5) {
		queries = append(queries, query{name, job, job.ParamName})
	}
	// The jobs come in maps; answer them in name order, so every run prints
	// the same report.
	sort.Slice(queries, func(i, j int) bool { return queries[i].name < queries[j].name })
	for _, q := range queries {
		res, err := core.Solve(q.job, opts)
		if err != nil {
			panic(err)
		}
		report(q.name, res, q.paramName)
	}
}

func report(name string, res core.Result, paramName func(int) string) {
	switch res.Status {
	case core.Proved:
		var params []string
		for _, i := range res.Abstraction.Elems() {
			params = append(params, paramName(i))
		}
		fmt.Printf("%-14s PROVED in %d iterations; cheapest abstraction (|p|=%d): %v\n",
			name, res.Iterations, res.Abstraction.Len(), params)
	case core.Impossible:
		fmt.Printf("%-14s IMPOSSIBLE in %d iterations: no abstraction in the family proves it\n",
			name, res.Iterations)
	default:
		fmt.Printf("%-14s UNRESOLVED after %d iterations\n", name, res.Iterations)
	}
}
