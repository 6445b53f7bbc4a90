package faultinject

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestOnNthCallFiresExactlyOnce(t *testing.T) {
	c := OnNthCall(3)
	fired := 0
	for i := 0; i < 10; i++ {
		if c.Hit() {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly once", fired)
	}
	if c.Calls() != 10 {
		t.Fatalf("calls = %d, want 10", c.Calls())
	}
}

func TestOnNthCallConcurrent(t *testing.T) {
	c := OnNthCall(50)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if c.Hit() {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("fired %d times under concurrency, want exactly once", fired)
	}
}

func TestZeroNeverFires(t *testing.T) {
	c := OnNthCall(0)
	for i := 0; i < 100; i++ {
		if c.Hit() {
			t.Fatal("n=0 must never fire")
		}
	}
}

func TestPanicOnNth(t *testing.T) {
	hook := PanicOnNth(2, "boom")
	hook(1) // first call: no panic
	defer func() {
		if recover() == nil {
			t.Fatal("second call did not panic")
		}
	}()
	hook(2)
}

func TestErrorReaderFailsAtLimit(t *testing.T) {
	data, err := io.ReadAll(ErrorReader(strings.NewReader("hello world"), 5))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if string(data) != "hello" {
		t.Fatalf("read %q before failing, want %q", data, "hello")
	}
}

func TestTruncateReaderCleanEOF(t *testing.T) {
	data, err := io.ReadAll(TruncateReader(strings.NewReader("hello world"), 5))
	if err != nil {
		t.Fatalf("truncated read must end in clean EOF, got %v", err)
	}
	if string(data) != "hello" {
		t.Fatalf("read %q, want %q", data, "hello")
	}
}

func TestSlowReaderPreservesContent(t *testing.T) {
	const text = "the quick brown fox jumps over the lazy dog"
	data, err := io.ReadAll(SlowReader(strings.NewReader(text), 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != text {
		t.Fatalf("content mangled: %q", data)
	}
}
