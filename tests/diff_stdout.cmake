# Runs PROGRAM and fails unless it exits 0 and its stdout equals GOLDEN
# byte for byte. The stdout is kept as <golden name>.stdout in the working
# directory, so a failing run can be diffed by hand.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -P diff_stdout.cmake
get_filename_component(name "${GOLDEN}" NAME_WE)
set(actual "${name}.stdout")
execute_process(COMMAND "${PROGRAM}" OUTPUT_FILE "${actual}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual}")
  endif()
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}")
endif()
