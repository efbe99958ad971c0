package capture

import (
	"fmt"
	"sync"
	"testing"
)

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if len(s.All()) != 0 {
		t.Fatal("fresh store not empty")
	}
	s.Record(&Capture{FinalDomain: "a.com"})
	s.Record(&Capture{FinalDomain: "a.com"})
	s.Record(&Capture{FinalDomain: "b.com"})
	s.Record(&Capture{Failed: true}) // no final domain: kept all the same
	all := s.All()
	if len(all) != 4 {
		t.Fatalf("All = %d", len(all))
	}
	// All keeps recording order.
	for i, want := range []string{"a.com", "a.com", "b.com", ""} {
		if all[i].FinalDomain != want {
			t.Errorf("All[%d] = %q, want %q", i, all[i].FinalDomain, want)
		}
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.Record(&Capture{FinalDomain: fmt.Sprintf("d%d.com", i%10)})
			}
		}(i)
	}
	wg.Wait()
	if n := len(s.All()); n != 1000 {
		t.Errorf("All = %d, want 1000", n)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewMemStore(), NewMemStore()
	MultiSink{a, b}.Record(&Capture{FinalDomain: "x.com"})
	if len(a.All()) != 1 || len(b.All()) != 1 {
		t.Error("MultiSink must fan out")
	}
}

func TestVantages(t *testing.T) {
	if USCloud.Name == EUCloud.Name || EUCloud.Name == EUUniversity.Name {
		t.Error("vantage names must be distinct")
	}
	if !USCloud.Cloud || !EUCloud.Cloud || EUUniversity.Cloud {
		t.Error("cloud flags wrong")
	}
}
