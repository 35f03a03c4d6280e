# `portend --help` must print exactly the first fenced block under
# "## Usage" in docs/CLI.md: the help text is the CLI reference's
# source of truth, and this keeps the two from drifting apart.
# Invoked by ctest (see tests/CMakeLists.txt) with
# -DPORTEND=<path to the portend binary> -DCLI_DOC=<path to CLI.md>.

if(NOT DEFINED PORTEND OR NOT DEFINED CLI_DOC)
    message(FATAL_ERROR
        "run_cli_usage.cmake needs -DPORTEND=... -DCLI_DOC=...")
endif()

execute_process(
    COMMAND ${PORTEND} --help
    OUTPUT_VARIABLE help
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`portend --help` exited ${rc}\n${err}")
endif()

file(READ ${CLI_DOC} doc)
string(FIND "${doc}" "\n## Usage\n" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${CLI_DOC} has no \"## Usage\" section")
endif()
string(SUBSTRING "${doc}" ${at} -1 doc)
string(FIND "${doc}" "\n```\n" open)
if(open EQUAL -1)
    message(FATAL_ERROR "no fenced block under \"## Usage\" in ${CLI_DOC}")
endif()
math(EXPR body "${open} + 5")
string(SUBSTRING "${doc}" ${body} -1 doc)
string(FIND "${doc}" "\n```\n" close)
if(close EQUAL -1)
    message(FATAL_ERROR "unterminated Usage block in ${CLI_DOC}")
endif()
math(EXPR len "${close} + 1")
string(SUBSTRING "${doc}" 0 ${len} block)

if(NOT help STREQUAL block)
    get_filename_component(out_dir ${CMAKE_CURRENT_BINARY_DIR} ABSOLUTE)
    file(WRITE ${out_dir}/cli_usage_help.txt "${help}")
    file(WRITE ${out_dir}/cli_usage_doc.txt "${block}")
    message(FATAL_ERROR
        "`portend --help` differs from the Usage block of ${CLI_DOC}; "
        "compare ${out_dir}/cli_usage_help.txt with "
        "${out_dir}/cli_usage_doc.txt")
endif()
