# Developer task runner. `just ci` mirrors .github/workflows/ci.yml.

# Build, test, lint, docs — the full gate.
ci: build test clippy doc perfbench-test

build:
    cargo build --release

test:
    cargo test -q --workspace

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: catches intra-doc links left dangling
# when an item is deleted or made private.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The benchmark package's own tests (it is a separate workspace, so
# `cargo test --workspace` does not reach it). Its shadow drivers copy
# the campaign, explore, service and fuzz run loops; these tests fail
# when an engine change leaves a shadow behind (mirrors CI's test job).
perfbench-test:
    cargo test -q --manifest-path perfbench/Cargo.toml

# Quick seeded campaign: 5 schedulers x 200 seeds over phased racing,
# then a `--stop-after` truncation at two thread counts, then the
# campaign-mix matrix against its pinned bytes, then the simulation
# sweep at two thread counts (mirrors CI).
smoke-campaign:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run --release -- campaign --procs 3 --runs 200 \
        --sched rr,random,quantum:2,obstruction:2,crash:1 --json
    # --stop-after plans its cells before any worker starts: the report
    # and the checkpoint are the same at 1 and 4 threads.
    for t in 1 4; do
        cargo run --release -- campaign --runs 40 --sched rr,random \
            --stop-after 7 --checkpoint "stop-after-t$t.checkpoint.json" \
            --threads "$t" --json > "stop-after-t$t.json"
    done
    cmp stop-after-t1.checkpoint.json stop-after-t4.checkpoint.json
    cmp stop-after-t1.json stop-after-t4.json
    echo "smoke-campaign: --stop-after report and checkpoint identical at 1 and 4 threads"
    # The perfbench campaign-mix matrix: its report and checkpoint bytes
    # are pinned across commits, at 1 and 4 threads.
    for t in 1 4; do
        cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
            --sched rr,random,quantum:2,obstruction:2,crash:1 --runs 1000 \
            --seed-start 100000 --checkpoint "campaign-mix-t$t.checkpoint.json" \
            --threads "$t" --json > "campaign-mix-t$t.json"
        grep -qF '"distinct_configs": 10780,' "campaign-mix-t$t.json"
        echo "c85d8a0949bd59bd7a6fd59018e57f3d604c018bcf694fd88ff4f41ddebeb591  campaign-mix-t$t.json" \
            | sha256sum -c -
        echo "b5ad53cff182a2988240d6b0c75c6f171a4ad5b750f5d9b6ade7f228193d202d  campaign-mix-t$t.checkpoint.json" \
            | sha256sum -c -
    done
    echo "smoke-campaign: campaign-mix report and checkpoint match their pinned sha256 at 1 and 4 threads"
    # A session cut by --stop-after and then resumed must reach the same
    # pinned bytes.
    for t in 1 4; do
        ckpt="campaign-mix-t$t.resumed.checkpoint.json"
        cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
            --sched rr,random,quantum:2,obstruction:2,crash:1 --runs 1000 \
            --seed-start 100000 --stop-after 2500 --checkpoint "$ckpt" \
            --threads "$t" --json > /dev/null
        cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
            --sched rr,random,quantum:2,obstruction:2,crash:1 --runs 1000 \
            --seed-start 100000 --resume "$ckpt" --checkpoint "$ckpt" \
            --threads "$t" --json > "campaign-mix-t$t.resumed.json"
        echo "c85d8a0949bd59bd7a6fd59018e57f3d604c018bcf694fd88ff4f41ddebeb591  campaign-mix-t$t.resumed.json" \
            | sha256sum -c -
        echo "b5ad53cff182a2988240d6b0c75c6f171a4ad5b750f5d9b6ade7f228193d202d  campaign-mix-t$t.resumed.checkpoint.json" \
            | sha256sum -c -
    done
    echo "smoke-campaign: campaign-mix resumed after --stop-after 2500 matches the same pins at 1 and 4 threads"
    # The one family whose interference matrix proves pairs independent,
    # so its campaign audit confirms them (6 pairs, 2,655 prefilter hits):
    # the report is pinned across commits, at 1 and 4 threads.
    for t in 1 4; do
        cargo run --release -- campaign --protocol serializable --procs 4 \
            --sched rr,random,crash:1 --runs 300 --threads "$t" --json > "serializable-t$t.json"
        echo "6e3a3532027bc60aa3cc51e6cd1c4515118972c05c7f563dac9da86c0456858f  serializable-t$t.json" \
            | sha256sum -c -
    done
    echo "smoke-campaign: serializable report matches its pinned sha256 at 1 and 4 threads"
    # `sweep` fans its seeds over the same worker pool as the campaigns:
    # its table is the same bytes at every thread count.
    for t in 1 3; do
        cargo run --release -- sweep --n 4 --m 2 --f 2 --runs 200 \
            --threads "$t" > "sweep-t$t.txt"
    done
    cmp sweep-t1.txt sweep-t3.txt
    grep -qF 'budgets hold: true' sweep-t1.txt
    echo "37865e71448e2e67b234c7f84e91226607469abe5490c60845a97238713c03ee  sweep-t1.txt" \
        | sha256sum -c -
    echo "smoke-campaign: sweep table identical at 1 and 3 threads and matches its pinned sha256"

# The paper's bound machine-checked at full size: a breadth-first
# search of 3 racing processes on 2 registers, fewer than the
# ⌊(n−1)/k⌋+1 = 3 the bound needs, must stop at the canonical 21-step
# consensus violation (exit code 1) with the same counts at 1, 2 and 3
# threads, and the violation search in `examples/model_checking` must
# report its shortest witnesses (mirrors CI's smoke-explore job).
smoke-explore:
    #!/usr/bin/env bash
    set -uo pipefail
    cargo build --release --quiet || exit 1
    bin=target/release/revisionist-simulations
    for t in 1 2 3; do
        out="explore-racing3-t$t.json"
        $bin explore --protocol racing --procs 3 \
            --m 2 --depth 64 --max-configs 400000 --threads "$t" --json > "$out"
        code=$?
        [ "$code" -eq 1 ] || { echo "racing3 threads $t: exit code $code, expected 1"; exit 1; }
        for want in '"configs_visited": 210751,' '"terminals": 24,' '"pruned": 59144,' \
            '"schedule": [0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 2, 1, 1, 1, 1, 1, 1, 1, 2]'; do
            grep -qF "$want" "$out" || { echo "racing3 threads $t: missing $want"; exit 1; }
        done
        out="explore-racing6-t$t.json"
        $bin explore --protocol racing --procs 6 \
            --m 2 --depth 7 --max-configs 8000000 --threads "$t" --json > "$out"
        code=$?
        [ "$code" -eq 0 ] || { echo "racing6 threads $t: exit code $code, expected 0"; exit 1; }
        for want in '"configs_visited": 29689,' '"terminals": 0,' '"pruned": 36080,'; do
            grep -qF "$want" "$out" || { echo "racing6 threads $t: missing $want"; exit 1; }
        done
        # The closed-form oracle: Fubini(3)^2 = 169 terminal views.
        out="explore-iis3r2-t$t.json"
        $bin explore --protocol iis --procs 3 --rounds 2 --threads "$t" --json > "$out" \
            || { echo "iis threads $t: exit code $?, expected 0"; exit 1; }
        grep -qF '"terminals": 169,' "$out" || { echo "iis threads $t: not 169 terminals"; exit 1; }
    done
    # Each report, timing fields aside, matches its pinned sha256 at
    # every thread count, so the reports are also equal across them.
    untimed() { grep -vE '^  "(threads|elapsed_ms|states_per_sec)":' "$1"; }
    for pin in racing3:795338b9e9ce21fa586f8c834f315e3f5efb4577706694709f5f32827e007bc4 \
        racing6:ea363195a4beacb10882e1c35f9b201f783cc6bc2662aad174c40f2a7ad22908 \
        iis3r2:f3326ecacf27a54976aef1bcf4efb493bef7397eeb53ef989c87ec0cd03207bb; do
        w=${pin%%:*}
        for t in 1 2 3; do
            got=$(untimed "explore-$w-t$t.json" | sha256sum | cut -d' ' -f1)
            [ "$got" = "${pin#*:}" ] \
                || { echo "$w threads $t: untimed report sha256 $got, pinned ${pin#*:}"; exit 1; }
        done
    done
    cargo run --release --quiet --example model_checking > model-checking.txt || exit 1
    for want in 'racing m=1: VIOLATION after 10 steps' 'racing m=2: VIOLATION after 22 steps'; do
        grep -qF "$want" model-checking.txt || { echo "model_checking: missing $want"; exit 1; }
    done
    echo "smoke-explore: reports match their pinned sha256 at 1, 2 and 3 threads, shortest search witnesses"

# Fault-injection certificate: the exhaustive single-crash sweep plus
# the §3 non-blocking certification (mirrors CI's smoke-faults job).
smoke-faults:
    #!/usr/bin/env bash
    set -euo pipefail
    # Both fault reports are pinned across commits, at 1 and 4 threads:
    # the certified sweep, and a budget too small to certify, whose 62
    # failing records pin the record bytes too (that campaign exits 1).
    for t in 1 4; do
        cargo run --release -- campaign --faults sweep --procs 3 --runs 4 \
            --budget 4000 --sched rr --threads "$t" --json > "fault-sweep-t$t.json"
        echo "f4d2f1ae00d308b7928f34aad5d0459db45ad4101b32640b45139e913fff2a45  fault-sweep-t$t.json" \
            | sha256sum -c -
        status=0
        cargo run --release -- campaign --faults sweep --procs 3 --runs 4 \
            --budget 15 --sched random --threads "$t" --json > "fault-mixed-t$t.json" \
            || status=$?
        [ "$status" -eq 1 ] || { echo "fault-mixed: exit $status, want 1 (not certified)"; exit 1; }
        echo "9bec59e381a904be6f6bee6f9de4a74d68c165e7b9eb1cd55e9d3a48610bc448  fault-mixed-t$t.json" \
            | sha256sum -c -
    done
    echo "smoke-faults: both fault reports match their pinned sha256 at 1 and 4 threads"
    cargo run --release -- aug --f 3 --m 2 --certify

# Shrink a known violation into a replay bundle, replay it at several
# thread counts, and prove a tampered bundle is rejected. Both bundles
# are pinned by sha256 across commits: seed 28's is already 1-minimal,
# while the drop-helping mutant's really shrinks, 69 -> 52 decisions
# (mirrors CI's smoke-replay job).
smoke-replay:
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched random --runs 100 --bundle cex.bundle.json
    echo "36e23eeedbf737d95f296052dead8391427c741cad64557359b7696ea65d3726  cex.bundle.json" \
        | sha256sum -c -
    cargo run --release -- campaign --protocol gen:1:drop-helping \
        --sched obstruction:1 --runs 50 --bundle drop-helping.bundle.json \
        2> drop-helping.log
    grep -q 'shrunk counterexample: 69 -> 52 decisions' drop-helping.log
    echo "b302f49aff2fc10ec9b95b0e96020d50d4ec858819e36d1c862141d7c3fd83d9  drop-helping.bundle.json" \
        | sha256sum -c -
    cargo run --release -- replay drop-helping.bundle.json
    cargo run --release -- replay cex.bundle.json
    cargo run --release -- replay cex.bundle.json --threads 8
    sed 's/"fingerprint": [0-9]*/"fingerprint": 1/' cex.bundle.json \
        > tampered.bundle.json
    ! cargo run --release -- replay tampered.bundle.json

# Chaos determinism gate for the multi-process campaign service: a
# service run with a worker SIGKILLed mid-unit and a torn journal
# write injected must merge to a report byte-identical to the
# single-process no-fault reference, every corpus bundle must replay,
# a second run over the same state dir must converge from the journal
# alone, and the E17 soak (three kills, one on the very first lease,
# plus two torn writes) must merge to the same bytes as its reference.
# The reference is pinned by sha256 across commits. A 5,000-run service
# in 8-run units must merge to the in-process bytes with a snapshot of
# at most 256 KiB and no worker checkpoint left behind (mirrors CI's
# smoke-service job).
smoke-service:
    rm -rf svc-state soak-state svc-5k-state
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --threads 1 --json-out svc-ref.json
    echo "8c5b3e644314fcf2978f2ec9d3f40c99747801a17d6d20e1b82fb6c76d604434  svc-ref.json" \
        | sha256sum -c -
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --workers 2 --unit-runs 8 \
        --state svc-state --chaos kill@unit:1,torn@result:3 \
        --json-out svc-merged.json
    cmp svc-ref.json svc-merged.json
    for b in svc-state/corpus/*.bundle.json; do \
        cargo run --release -- replay "$b" || exit 1; done
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --state svc-state --json-out svc-rerun.json
    cmp svc-ref.json svc-rerun.json
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random,obstruction:1 --runs 60 --threads 1 \
        --json-out soak-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random,obstruction:1 --runs 60 --workers 3 --unit-runs 8 \
        --state soak-state \
        --chaos kill@unit:0,kill@unit:7,kill@unit:16,torn@result:3,torn@result:12 \
        --json-out soak-merged.json 2> soak.log
    cat soak.log
    grep -q '3 worker kills, 2 torn journal writes injected' soak.log
    cmp soak-ref.json soak-merged.json
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 2500 --threads 1 --json-out svc-5k-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 2500 --workers 2 --unit-runs 8 \
        --state svc-5k-state --json-out svc-5k-merged.json
    cmp svc-5k-ref.json svc-5k-merged.json
    test "$(stat -c %s svc-5k-state/snapshot.json)" -le 262144
    test -z "$(find svc-5k-state -name 'unit-*.checkpoint.json')"

# TCP transport determinism gate: workers dial the coordinator over a
# real socket while the chaos proxy drops, delays, duplicates,
# corrupts and partitions frames and one worker is SIGKILLed — the
# merged report must stay byte-identical to the single-process
# reference, and a --faults matrix must shard across TCP workers with
# the same guarantee (mirrors CI's smoke-service-tcp job).
smoke-service-tcp:
    rm -rf svc-tcp-state svc-tcp-faults-state
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --threads 1 --json-out svc-tcp-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr,random --runs 40 --listen 127.0.0.1:0 --workers 2 \
        --unit-runs 8 --lease-timeout 2 --max-lease-attempts 10 \
        --state svc-tcp-state --summary \
        --chaos kill@unit:2,drop@4,delay@6,dup@9,corrupt@11,partition@14-16 \
        --json-out svc-tcp-merged.json
    cmp svc-tcp-ref.json svc-tcp-merged.json
    cargo run --release -- campaign --protocol racing --procs 3 --m 2 \
        --sched rr --runs 4 --faults sweep:2 --threads 1 \
        --json-out svc-tcp-faults-ref.json
    cargo run --release -- campaign-service --protocol racing --procs 3 --m 2 \
        --sched rr --runs 4 --faults sweep:2 --listen 127.0.0.1:0 \
        --workers 2 --unit-runs 2 --state svc-tcp-faults-state --summary \
        --json-out svc-tcp-faults-merged.json
    cmp svc-tcp-faults-ref.json svc-tcp-faults-merged.json

# Pre-flight analyzer smoke: every shipped protocol must analyze clean
# (deny-level), the ill-formed fixture must be rejected with its stable
# lint codes, the static-interference pass must warn (and gate under
# --deny) on the serializable fixture, and the analyzer module must be
# clippy-clean (mirrors CI's analyze-smoke job).
analyze-smoke:
    cargo run --release -- analyze --protocol racing
    cargo run --release -- analyze --protocol contrarian
    cargo run --release -- analyze --protocol ladder
    cargo run --release -- analyze --protocol serializable --matrix
    ! cargo run --release -- analyze --protocol serializable --deny RS-W010
    cargo run --release -- analyze --explain RS-W008
    ! cargo run --release -- analyze --protocol illformed
    ! cargo run --release -- campaign --protocol illformed --runs 1
    cargo clippy -p rsim-smr --all-targets -- -D warnings

# Miri smoke over the pointer-heavy suites (trace arena, fingerprint
# cache, journaled work queue). Needs a nightly toolchain with the
# miri component (`rustup +nightly component add miri`); isolation is
# off because the queue tests touch the real filesystem. Non-blocking
# in CI — run locally before touching unsafe or aliasing-sensitive
# code.
miri-smoke:
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib trace::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib fingerprint::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p rsim-smr --lib service::queue::

# Generated-protocol mutation-kill fuzzing: every base must pass
# pre-flight, every predicted-fatal mutant must be killed + shrunk +
# bundled into fuzz-corpus/, analyzer-reject mutants must die at
# pre-flight, and one stored bundle must replay bit-for-bit (mirrors
# CI's fuzz-smoke job). Exit is nonzero if any prediction fails.
# The report and the corpus are pinned across commits, at 1 and 4
# threads, written to the same corpus path (the report names it).
fuzz-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    for t in 1 4; do
        rm -rf fuzz-corpus
        cargo run --release -- fuzz --seeds 0..16 --mutants \
            --corpus fuzz-corpus --threads "$t" --json-out FUZZ_smoke.json
        echo "c77ad212e6b9cc676a4ba1700051f4429c9d6fe5243ece89014170b91c95b3cd  FUZZ_smoke.json" \
            | sha256sum -c -
        (cd fuzz-corpus && find . -type f | LC_ALL=C sort | xargs sha256sum) > fuzz-corpus.sha256
        echo "02ee4525bb6a8ce93651be218e37d8aa65d5ad29a55a2d18f9c518001dc59f89  fuzz-corpus.sha256" \
            | sha256sum -c -
    done
    cargo run --release -- replay fuzz-corpus/gen-0-shrink-m.bundle.json --threads 4

# Per-experiment Criterion benches (CRITERION_SAMPLES trims sample count).
bench:
    cargo bench -p rsim-bench

# Quick hot-path benchmark: one sample per arm, machine-readable
# summary (this host's measurements, with the live legacy and
# deep-copy arms beside them) to BENCH_e14.json at the repo root
# (mirrors CI's bench-smoke job).
bench-smoke: bench-e16
    CRITERION_SAMPLES=1 BENCH_E14_OUT={{justfile_directory()}}/BENCH_e14.json \
        cargo bench -p rsim-bench --bench e14_hotpath

# Quick DPOR benchmark: reduction factor + on/off wall-clock over the
# phased-racing family, with report-equality asserts baked in. Writes
# BENCH_e16.json at the repo root (mirrors CI's bench-smoke job).
bench-e16:
    CRITERION_SAMPLES=1 BENCH_E16_OUT={{justfile_directory()}}/BENCH_e16.json \
        cargo bench -p rsim-bench --bench e16_dpor

# Regenerate the numbers in EXPERIMENTS.md.
report:
    cargo run --release --example experiments_report
