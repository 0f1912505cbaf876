# Checks a bench's command-line contract: `--help` prints the usage and
# exits 0; an unknown flag exits 2 (never an uncaught exception, 134).
# Usage: cmake -DBENCH=<bench executable> -P cli_exit_codes.cmake
execute_process(COMMAND ${BENCH} --help RESULT_VARIABLE help_rc
                OUTPUT_VARIABLE help_out ERROR_QUIET)
if(NOT help_rc EQUAL 0 OR NOT help_out MATCHES "usage:")
  message(FATAL_ERROR "--help: exit ${help_rc}, output '${help_out}'")
endif()
execute_process(COMMAND ${BENCH} --no-such-flag RESULT_VARIABLE bad_rc
                OUTPUT_QUIET ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 2 OR NOT bad_err MATCHES "unknown flag")
  message(FATAL_ERROR "unknown flag: exit ${bad_rc}, stderr '${bad_err}'")
endif()
