package goleak

import "log"

// gotoOut is a near miss: the goto leaves the loop for a label after
// it.
func gotoOut() {
	go func() {
		for {
			if tired() {
				goto done
			}
		}
	done:
		work()
	}()
}

// panicOut is a near miss: log.Panic does not return, it unwinds the
// goroutine.
func panicOut() {
	go func() {
		for {
			if tired() {
				log.Panic("tired")
			}
		}
	}()
}
