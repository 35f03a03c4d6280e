# Golden-verdict diff: run `portend classify <WORKLOAD> --json` and
# compare its bytes against the pinned golden file. Invoked by ctest
# (see tests/CMakeLists.txt) with:
#   -DPORTEND=<path to the portend binary>
#   -DWORKLOAD=<workload name>
#   -DGOLDEN=<path to tests/golden/<workload>.json>
#
# The comparison is byte-exact on purpose: verdict classes, k
# counts, distinct-schedule ledgers, and evidence signatures are all
# deterministic (across --jobs values and sanitizer builds), so any
# diff is a behavior change that must be reviewed. Regenerate with
# tools/update_goldens.sh and commit the diff.

foreach(var PORTEND WORKLOAD GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake needs -D${var}=...")
    endif()
endforeach()

execute_process(
    COMMAND ${PORTEND} classify ${WORKLOAD} --json
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "portend classify ${WORKLOAD} --json exited with ${rc}")
endif()

if(NOT EXISTS ${GOLDEN})
    message(FATAL_ERROR "missing golden file ${GOLDEN} "
        "(run tools/update_goldens.sh)")
endif()
file(READ ${GOLDEN} want)

if(NOT got STREQUAL want)
    # Show the fresh output so the ctest log carries the full diff
    # context without needing a rerun.
    message(FATAL_ERROR
        "golden mismatch for workload '${WORKLOAD}'.\n"
        "--- expected (${GOLDEN}) ---\n${want}\n"
        "--- got ---\n${got}\n"
        "If the change is intentional, regenerate with "
        "tools/update_goldens.sh and review the git diff.")
endif()
