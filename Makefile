# Convenience targets; `make check` is the repo's full verification
# (gofmt, vet, lint, build, tests, race pass) — see scripts/check.sh.

.PHONY: check test lint bench build

check:
	sh scripts/check.sh

test:
	go test ./...

lint:
	go run ./cmd/vmtlint -strict ./...

build:
	go build ./...

bench:
	go test -bench=. -benchmem ./...
