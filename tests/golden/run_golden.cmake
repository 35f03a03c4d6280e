# Golden diff: run one portend command and compare its stdout bytes
# against a pinned golden file. Invoked by ctest (see
# tests/CMakeLists.txt) with:
#   -DPORTEND=<path to the portend binary>
#   -DGOLDEN=<path to the golden file under tests/golden/>
#   -DARGS="<portend arguments>"  runs `portend <arguments>`
#   -DOUTPUT=<file>  (optional) compare the file the command writes
#                    there instead of its stdout; it is removed
#                    first, and <file> in ARGS stands for its path
#
# The comparison is byte-exact on purpose: verdict classes, k
# counts, distinct-schedule ledgers, evidence signatures and fuzz
# summaries are all deterministic (across --jobs values and
# sanitizer builds), so any diff is a behavior change that must be
# reviewed. Regenerate with tools/update_goldens.sh and commit the
# diff.

foreach(var PORTEND GOLDEN ARGS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake needs -D${var}=...")
    endif()
endforeach()

separate_arguments(cmd UNIX_COMMAND "${ARGS}")
string(JOIN " " what ${cmd})
if(DEFINED OUTPUT)
    file(REMOVE ${OUTPUT})
    list(TRANSFORM cmd REPLACE "^<file>$" "${OUTPUT}")
endif()

execute_process(
    COMMAND ${PORTEND} ${cmd}
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "portend ${what} exited with ${rc}")
endif()
if(DEFINED OUTPUT)
    if(NOT EXISTS ${OUTPUT})
        message(FATAL_ERROR "portend ${what} wrote no ${OUTPUT}")
    endif()
    file(READ ${OUTPUT} got)
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
        "golden mismatch for 'portend ${what}'.\n"
        "--- expected (${GOLDEN}) ---\n${want}\n"
        "--- got ---\n${got}\n"
        "If the change is intentional, regenerate with "
        "tools/update_goldens.sh and review the git diff.")
endif()
