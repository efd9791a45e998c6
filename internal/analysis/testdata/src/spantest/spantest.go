// Package spantest is the spanpair analyzer's golden fixture: traces
// used on one goroutine, traces crossing a go statement, and a
// reasoned suppression.
package spantest

import "apbcc/internal/obs"

func cond() bool { return false }

// sameGoroutine tiles a trace on the goroutine that owns it.
func sameGoroutine(tr *obs.Trace) {
	tr.Next(obs.StageBuild)
	if cond() {
		tr.Finish(obs.OutcomeError)
		return
	}
	tr.Next(obs.StageWrite)
	tr.Finish(obs.OutcomeOK)
}

// helper takes the trace on the same goroutine: a call is no crossing.
func helper(tr *obs.Trace) {
	sameGoroutine(tr)
}

// traceCrossing hands the trace itself to a goroutine.
func traceCrossing(tr *obs.Trace) {
	go func() {
		tr.Next(obs.StageWrite) // want `tr crosses a go statement`
	}()
}

// argCrossing passes the trace as the goroutine's argument.
func argCrossing(tr *obs.Trace) {
	go sameGoroutine(tr) // want `tr crosses a go statement`
}

// localTrace declares its own trace inside the goroutine: neither the
// variable nor the type name in its declaration crosses anything.
func localTrace() {
	go func() {
		var tr *obs.Trace
		tr.Finish(obs.OutcomeOK)
	}()
}

// allowCrossing shows a reasoned suppression.
func allowCrossing(tr *obs.Trace, done chan struct{}) {
	go func() {
		//apcc:allow spanpair fixture demonstrates a reviewed suppression
		tr.Finish(obs.OutcomeOK)
		close(done)
	}()
	<-done
}
