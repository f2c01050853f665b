#!/bin/sh
# Final benchmark sweep: regenerates every table/figure and records the
# output EXPERIMENTS.md references. Also runs the trace smoke job: the
# trace_smoke-marked tests assert end-to-end that a traced run's
# per-phase report agrees with its DbsStats totals and that parallel
# runs merge worker shards losslessly.
cd /root/repo
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH
python -m pytest tests/ -m trace_smoke -q 2>&1 | tee /root/repo/trace_smoke_output.txt
python benchmarks/bench_eval.py 2>&1 | tee /root/repo/bench_eval_output.txt
python benchmarks/bench_enum.py 2>&1 | tee /root/repo/bench_enum_output.txt
python benchmarks/bench_tds_warm.py 2>&1 | tee /root/repo/bench_tds_warm_output.txt
python benchmarks/bench_service.py 2>&1 | tee /root/repo/bench_service_output.txt
python benchmarks/bench_schedule.py 2>&1 | tee /root/repo/bench_schedule_output.txt
python -m pytest benchmarks/ --benchmark-only -s -q 2>&1 | tee /root/repo/bench_output.txt
