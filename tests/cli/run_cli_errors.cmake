# CLI flag-validation battery: every malformed flag value must be a
# usage error (exit 2) with a diagnostic on stderr — never a silent
# saturation or a crash. Invoked by ctest (see tests/CMakeLists.txt)
# with -DPORTEND=<path to the portend binary>.
#
# The out-of-range rows pin the --ma 99999999999999999999 regression:
# strtoll used to saturate without an ERANGE check, so an absurd
# budget silently became INT64_MAX (then truncated through an int
# cast) instead of being rejected. A number is an optional '-' and
# digits: the blank and '+' that strtoll skipped (`--ma ' +1'`,
# `--fuzz-seed ' 1'`) are refused.
#
# Retired flags stay pinned: a script that still passes the old
# dispatch-loop flag, the loopback TCP endpoint (`--port`), the
# connect budget (`--timeout`), a serve budget that is now a
# constant (`--max-submissions`, `--attempts`, `--max-restarts`), the
# stage-3 explorer switch (`--explore`; dpor is the one explorer), the
# detection seed (`--seed`; detection runs one deterministic schedule
# that no seed changes), the fuzz verdict cache (`fuzz --campaign`; a
# fuzz run is a function of its seed and budget), or an observability
# surface that `--metrics-out` and `--trace-out` replace (`--stats`,
# `--progress`, `--quiet`) must fail loudly, never run silently. The serve rows name
# a socket, so only the flag under test can be what fails.
#
# `campaign run|resume|status <dir>` refuses a flag where the
# directory belongs, so a forgotten `<dir>` never creates a campaign
# named after the flag. The path flags (`--metrics-out`,
# `--trace-out`, `--corpus`, `--socket`) follow the same rule: a
# forgotten path never writes a file, or creates a directory, named
# after the next flag, and `submit` never dials a socket named after
# one.
#
# `submit` with an action (`--status`, `--ping`, `--shutdown`) sends
# no manifest: a second action or any other flag beside it is refused
# rather than dropped without a word. `submit` never takes `--jobs`
# or an observability flag either: the server runs the units, so
# those would be dropped too. These rows name a socket nothing
# listens on, so a flag that were accepted would fail with exit 1
# after the client's connect retry instead.
#
# `run|classify <w>` and `--file` refuse a `--sym-input` name that no
# Input instruction of the program carries: it would select nothing,
# so a misspelt name would run the plain analysis without a word.

if(NOT DEFINED PORTEND)
    message(FATAL_ERROR "run_cli_errors.cmake needs -DPORTEND=...")
endif()

# Each case: a semicolon-free command line that must exit 2.
set(bad_cases
    "classify avv --ma 99999999999999999999"
    "classify avv --mp 99999999999999999999"
    "classify avv --k 9223372036854775808"
    "classify avv --mp -3"
    "classify avv --ma 0"
    "classify avv --jobs 0"
    "classify avv --jobs 2147483648"
    "classify avv --ma ' +1'"
    "classify avv --k banana"
    "classify avv --explore random"
    "classify avv --explore dpor"
    "classify ibuf --sym-input nosuch=0..9"
    "run ibuf --sym-input n --sym-input nosuch"
    "classify avv --sym-input n"
    "campaign run ignored --abort-after -1"
    "campaign run --json"
    "classify avv --metrics-out --json"
    "classify avv --trace-out --json"
    "fuzz --budget 2 --jobs 1 --corpus --json"
    "submit --socket --json --status"
    "serve d --socket --json"
    "classify avv --stats"
    "classify avv --progress jsonl"
    "fuzz --budget 1 --quiet"
    "fuzz --budget -5"
    "fuzz --fuzz-seed -2"
    "fuzz --fuzz-seed 1x"
    "fuzz --fuzz-seed ' 1'"
    "classify avv --seed 1"
    "fuzz --budget 1 --seed 1"
    "fuzz --budget 1 --campaign retired-fuzz-campaign"
    "serve state --workers 0 --socket s"
    "serve state --port 65536"
    "serve d --socket s --max-submissions 1"
    "serve d --socket s --attempts 3"
    "serve d --socket s --max-restarts 1"
    "submit --port 0"
    "submit --socket x --timeout 0 --status"
    "submit --socket missing.sock --bogus --status"
    "submit --socket missing.sock --mp 0 --ping"
    "submit --socket missing.sock --status --shutdown"
    "submit --socket missing.sock --json --metrics-out m.json"
    "submit --socket missing.sock --trace-out t.json"
    "submit --socket missing.sock --progress jsonl"
    "submit --socket missing.sock --jobs 2"
    "--dispatch switch classify avv"
    )

foreach(case IN LISTS bad_cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    # A serve row whose flag were accepted would start a server that
    # never exits; the timeout turns that into a failure, not a hang.
    execute_process(
        COMMAND ${PORTEND} ${args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 60)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "expected usage error (exit 2) for `portend ${case}`, "
            "got exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    if(NOT err MATCHES "portend: ")
        message(FATAL_ERROR
            "no diagnostic on stderr for `portend ${case}`:\n${err}")
    endif()
endforeach()

# The retired fuzz verdict cache leaves no directory behind.
# (Script mode: the binary dir is the working directory the rows
# ran in.)
if(EXISTS "${CMAKE_CURRENT_BINARY_DIR}/retired-fuzz-campaign")
    message(FATAL_ERROR "fuzz --campaign created its directory")
endif()

# And the good-value boundary cases must NOT be rejected by flag
# parsing (they may fail later for other reasons, but never with the
# parse diagnostics above).
execute_process(
    COMMAND ${PORTEND} classify avv --ma 1 --mp 1
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "boundary values rejected: exit ${rc}\n${err}")
endif()

# The refusal names the inputs the program does read, `--file` refuses
# the same way, and a name the program reads keeps working.
execute_process(
    COMMAND ${PORTEND} classify ibuf --sym-input nosuch=0..9
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT err MATCHES "ibuf reads no input named nosuch \\(it reads: n, tune0, tune1\\)")
    message(FATAL_ERROR "--sym-input refusal does not name ibuf's input:\n${err}")
endif()
execute_process(
    COMMAND ${PORTEND} classify --file
        ${CMAKE_CURRENT_LIST_DIR}/../../corpus/seed/sig-047448d5/program.pil
        --sym-input nosuch
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "reads no input named nosuch")
    message(FATAL_ERROR
        "--file with an unread --sym-input: exit ${rc}\n${err}")
endif()
execute_process(
    COMMAND ${PORTEND} classify ibuf --sym-input n
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "classify ibuf --sym-input n rejected: exit ${rc}\n${err}")
endif()
